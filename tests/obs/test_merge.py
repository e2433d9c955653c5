"""Mergeable telemetry snapshots."""

import pytest

from repro.obs.telemetry import Histogram, Telemetry


def _registry(counter=0, gauge=0, observations=()):
    telemetry = Telemetry(enabled=True)
    telemetry.counter("comp", "hits").inc(counter)
    telemetry.gauge("comp", "depth").set(gauge)
    for value in observations:
        telemetry.histogram("comp", "sizes").observe(value)
    return telemetry


# ----------------------------------------------------------------------
# Telemetry.merge
# ----------------------------------------------------------------------

def test_counters_sum_across_states():
    merged = Telemetry.merge(
        [_registry(counter=3).export_state(), _registry(counter=4).export_state()]
    )
    assert merged.snapshot()["comp"]["hits"] == 7


def test_gauges_keep_the_maximum():
    merged = Telemetry.merge(
        [_registry(gauge=9).export_state(), _registry(gauge=2).export_state()]
    )
    assert merged.snapshot()["comp"]["depth"] == 9


def test_histograms_combine_bucketwise():
    merged = Telemetry.merge(
        [
            _registry(observations=[1, 100]).export_state(),
            _registry(observations=[50]).export_state(),
        ]
    )
    summary = merged.snapshot()["comp"]["sizes"]
    assert summary["count"] == 3
    assert summary["sum"] == 151
    assert summary["min"] == 1
    assert summary["max"] == 100

    reference = _registry(observations=[1, 100, 50]).snapshot()["comp"]["sizes"]
    assert summary == reference


def test_merge_of_merged_state_is_associative():
    states = [
        _registry(counter=1, observations=[2]).export_state(),
        _registry(counter=2, observations=[4]).export_state(),
        _registry(counter=4, observations=[8]).export_state(),
    ]
    pairwise = Telemetry.merge(
        [Telemetry.merge(states[:2]).export_state(), states[2]]
    )
    flat = Telemetry.merge(states)
    assert pairwise.snapshot() == flat.snapshot()


def test_histogram_combine_rejects_mismatched_bounds():
    ours = Histogram(bounds=(1.0, 2.0))
    theirs = Histogram(bounds=(1.0, 4.0))
    theirs.observe(3)
    with pytest.raises(ValueError):
        ours.combine(theirs.state())


def test_histogram_state_round_trips():
    histogram = Histogram()
    for value in (1, 5, 5000):
        histogram.observe(value)
    clone = Histogram.from_state(histogram.state())
    assert clone.summary() == histogram.summary()
    assert clone.state() == histogram.state()


def test_merge_handles_disjoint_instruments():
    a = Telemetry(enabled=True)
    a.counter("left", "only").inc(2)
    b = Telemetry(enabled=True)
    b.gauge("right", "only").set(5)
    merged = Telemetry.merge([a.export_state(), b.export_state()])
    snapshot = merged.snapshot()
    assert snapshot["left"]["only"] == 2
    assert snapshot["right"]["only"] == 5
