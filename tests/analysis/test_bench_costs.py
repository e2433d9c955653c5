"""Exact per-op costs of the standing workloads, pinned at quarter scale.

Host time on a shared VM spreads by 10-40 % from run to run, so a
change that saves 3 % cannot show in ``bench measure`` alone.  What the
program *does* repeats exactly: how many Python calls one drive makes,
how many events and timers the simulator runs, how many TCP segments go
out and how many ChaCha20 keystream passes the AEAD makes.  Each of the
five standing workloads is built (seed 1, first world, scale 0.25, as in
``test_bench_digests.py``) and driven once as a warm-up, so first-use
tables and memos exist whether this file runs alone or inside the whole
suite; then the identical world is built again and driven under
cProfile with the garbage collector off, and the counts are compared
with ``COSTS``.

``COSTS`` is the committed cost trajectory: a change that lowers a count
updates the table and says so in CHANGES.md, one that raises a count
says why.  Python 3.12 inlines comprehensions (PEP 709) and other
versions differ in what makes a frame, so the calls are pinned for
CPython 3.11 only (measured with numpy 2.4, whose Python-level helpers
are counted too).  Reads ``bench/``, changes nothing there.
"""

import cProfile
import gc
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench.harness import WARMUP_SCALE, sub_seed
from bench.trace import NoTrace
from bench.workloads import WORKLOADS
from repro.analysis.sanitizers import reset_process_globals
from repro.netsim.packet import Datagram

#: workload -> (Python calls, events processed, timers scheduled, TCP
#: segments sent, lane keystream passes, numpy keystream passes) for one
#: quarter-scale drive at seed 1, first world, after the warm-up drive.
COSTS = {
    "bulk_2path": (466_375, 9_258, 9_179, 3_048, 9, 33),
    "small_rpc": (97_239, 1_247, 1_249, 374, 46, 12),
    "handshake_churn": (227_659, 808, 1_053, 686, 312, 0),
    "overload_2x": (204_088, 837, 981, 756, 168, 48),
    "bulk_adverse": (637_214, 9_677, 9_678, 3_185, 19, 37),
}

pytestmark = pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="call counts are pinned for CPython 3.11: PEP 709 (3.12) inlines "
    "comprehensions and other versions make frames differently",
)


def _is(code, path, name):
    """Whether a profiled ``code`` is the function ``name`` of the file
    ending with ``path`` (builtins are profiled as strings)."""
    return not isinstance(code, str) and code.co_name == name and code.co_filename.endswith(path)


def _calls(entries, path, name):
    return sum(entry.callcount for entry in entries if _is(entry.code, path, name))


def _segments_sent(entries):
    """TCP segments handed to IP: one per ``TcpStack.send_raw`` and one
    per ``Datagram.__init__`` called by ``send_raw_batch``'s list
    comprehension (the burst path)."""
    burst = sum(
        callee.callcount
        for entry in entries if _is(entry.code, "tcp/stack.py", "<listcomp>")
        for callee in entry.calls or () if callee.code is Datagram.__init__.__code__
    )
    return _calls(entries, "tcp/stack.py", "send_raw") + burst


def test_every_standing_workload_has_costs():
    assert set(COSTS) == set(WORKLOADS) and WARMUP_SCALE == 0.25


@pytest.mark.parametrize("name", sorted(COSTS))
def test_quarter_scale_drive_costs_are_the_pinned_ones(name):
    workload = WORKLOADS[name]
    reset_process_globals()
    workload.drive(workload.build(sub_seed(1, 0), WARMUP_SCALE), NoTrace())
    reset_process_globals()
    world = workload.build(sub_seed(1, 0), WARMUP_SCALE)
    # No collection during the drive: a collection's callbacks (hypothesis
    # registers one once any property test has run) would be counted.
    gc.collect()
    gc.disable()
    profile = cProfile.Profile()
    try:
        profile.enable()
        outcome = workload.drive(world, NoTrace())
    finally:
        profile.disable()
        gc.enable()
    entries = profile.getstats()
    assert outcome.failures == []
    assert (
        sum(entry.callcount for entry in entries),
        world.sim.events_processed,
        _calls(entries, "netsim/engine.py", "schedule"),
        _segments_sent(entries),
        _calls(entries, "crypto/chacha20.py", "chacha20_keystream_lanes"),
        _calls(entries, "crypto/chacha20_fast.py", "chacha20_keystream_multi"),
    ) == COSTS[name]
