"""Trace points on the simulated-time axis."""

from repro.netsim.engine import Simulator
from repro.obs.tracing import Tracer, scrub_attrs


def _tracer(sim, **kwargs):
    return Tracer(lambda: sim.now, **kwargs)


def test_points_carry_the_simulated_time():
    sim = Simulator()
    tracer = _tracer(sim)
    sim.schedule(1.5, lambda: tracer.point("link", "drop", reason="queue"))
    sim.run_until_idle()
    (record,) = tracer.timeline()
    assert record["t"] == 1.5
    assert record["component"] == "link"
    assert record["event"] == "drop"
    assert record["reason"] == "queue"


def test_timeline_sorted_by_start_time():
    # Points are stamped with the simulated time they are appended at,
    # so the timeline is in time order without a sort, ties in the order
    # they fired.
    sim = Simulator()
    tracer = _tracer(sim)
    sim.schedule(3.0, tracer.point, "a", "late")
    sim.schedule(1.0, tracer.point, "a", "early")
    sim.schedule(2.0, tracer.point, "a", "mid")
    sim.schedule(2.0, tracer.point, "b", "mid-tie")
    sim.run_until_idle()
    timeline = tracer.timeline()
    assert [record["event"] for record in timeline] == ["early", "mid", "mid-tie", "late"]
    assert [record["t"] for record in timeline] == [1.0, 2.0, 2.0, 3.0]


def test_disabled_tracer_records_nothing():
    sim = Simulator()
    tracer = _tracer(sim, enabled=False)
    tracer.point("a", "x")
    tracer.point("b", "y", conn_id=0)
    assert tracer.timeline() == []
    assert tracer.dropped == 0
    assert len(tracer) == 0


def test_bounded_timeline_counts_drops():
    sim = Simulator()
    tracer = _tracer(sim, max_records=2)
    for i in range(5):
        tracer.point("a", "x", i=i)
    assert len(tracer) == 2
    assert tracer.dropped == 3


def test_scrub_attrs_keeps_json_friendly_values():
    class Opaque:
        pass

    attrs = scrub_attrs(
        {
            "n": 1,
            "f": 0.5,
            "s": "x",
            "b": True,
            "none": None,
            "flat": (1, 2),
            "obj": Opaque(),
            "nested": [[1]],
        }
    )
    assert attrs == {"n": 1, "f": 0.5, "s": "x", "b": True, "none": None, "flat": [1, 2]}


def test_events_named_filters():
    sim = Simulator()
    tracer = _tracer(sim)
    tracer.point("a", "x")
    tracer.point("b", "y")
    tracer.point("c", "x")
    assert [r["component"] for r in tracer.events_named("x")] == ["a", "c"]
