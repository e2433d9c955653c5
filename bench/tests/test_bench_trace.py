"""The tracer partitions the timed phase and leaves no patch behind."""

import importlib

import pytest

from bench import harness
from bench.metrics import SELF_TIME_METRICS
from bench.trace import TARGETS, Tracer
from bench.workloads import WORKLOADS


def _targets():
    for module_name, qualname, _name, _probe in TARGETS:
        owner = importlib.import_module(module_name)
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        yield owner, attr


def test_self_times_and_unattributed_share_sum_to_the_root():
    tracer = Tracer()
    tracer.install()
    try:
        repeat = harness.run_repeat(WORKLOADS["bulk_2path"], 7, 0.125, tracer)
    finally:
        tracer.restore()
    assert not repeat.outcome.failures
    values = harness.layer_metrics(tracer, repeat, repeat.wall_s, 0.0)
    root = tracer.root_seconds
    accounted = sum(values[name] for name in SELF_TIME_METRICS)
    accounted += values["harness.unattributed_share"] * root
    assert accounted == pytest.approx(root, rel=0.01)
    assert values["harness.unattributed_share"] <= 0.05
    # Every span names its parent, and the root is the only orphan.
    assert tracer.span_parent.count(-1) == 1
    assert len(tracer.span_name) == len(tracer.span_end) == len(tracer.span_op)


def test_every_wrapper_is_restored():
    import repro.crypto
    import repro.tls.record

    before = [(owner, attr, owner.__dict__[attr]) for owner, attr in _targets()]
    # ``from x import y`` copies live in the importing modules.
    copies = (repro.crypto.x25519, repro.tls.record.chacha20_keystream_multi)
    tracer = Tracer()
    tracer.install()
    try:
        assert all(owner.__dict__[attr] is not raw for owner, attr, raw in before)
        assert repro.crypto.x25519 is not copies[0]
        assert repro.tls.record.chacha20_keystream_multi is not copies[1]
        assert len(tracer.patched()) > len(before)
    finally:
        tracer.restore()
    assert all(owner.__dict__[attr] is raw for owner, attr, raw in before)
    assert (repro.crypto.x25519, repro.tls.record.chacha20_keystream_multi) == copies
    assert tracer.patched() == []


def test_tracing_does_not_perturb_the_simulation():
    document = harness.measure("bulk_adverse", seed=5, seconds=0.5, trace=True,
                               scale=0.25)
    assert document["failures"] == []
    assert document["line"]["correct"]
    assert document["metrics"]["core.failovers"]["value"] == 1
    assert document["metrics"]["tcp.retransmits"]["value"] > 0
