"""The distributions registry: histograms, null objects."""

from repro.obs import telemetry as telemetry_module
from repro.obs.telemetry import Histogram, Telemetry


def test_instruments_are_shared_by_key():
    telemetry = Telemetry()
    a = telemetry.histogram("link.v4", "queue_depth")
    b = telemetry.histogram("link.v4", "queue_depth")
    other = telemetry.histogram("link.v6", "queue_depth")
    assert a is b
    assert a is not other
    a.observe(3)
    b.observe(5)
    assert telemetry.snapshot()["link.v4"]["queue_depth"]["count"] == 2


def test_disabled_registry_returns_shared_noop_instruments():
    telemetry = Telemetry(enabled=False)
    telemetry.histogram("x", "h").observe(1)
    # Nothing recorded, nothing registered.
    assert telemetry.snapshot() == {}
    # All lookups share one null object: no per-callsite allocation.
    assert telemetry.histogram("a", "b") is telemetry.histogram("c", "d")


def test_counts_are_not_instruments():
    # Counts live on the object that counts them, so the registry has
    # no counter or gauge kind a disabled hub could blank.
    assert not {"counter", "gauge"} & set(vars(Telemetry))
    assert not {"Counter", "Gauge"} & set(vars(telemetry_module))


def test_histogram_summary():
    histogram = Histogram()
    for value in (1, 2, 2, 1000):
        histogram.observe(value)
    summary = histogram.summary()
    assert summary["count"] == 4
    assert summary["sum"] == 1005
    assert summary["min"] == 1
    assert summary["max"] == 1000
    assert summary["mean"] == 1005 / 4
    # Log-2 buckets: 1 -> "1", the 2s -> "2", 1000 -> "1024".
    assert summary["buckets"] == {"1": 1, "2": 2, "1024": 1}


def test_histogram_overflow_bucket():
    histogram = Histogram()
    histogram.observe(2 ** 40)
    assert histogram.summary()["buckets"] == {"+inf": 1}

