"""Behaviour of the discrete-event engine."""

import random
from types import SimpleNamespace

import pytest

from repro.netsim.engine import Simulator


def test_events_run_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(0.3, order.append, "c")
    sim.schedule(0.1, order.append, "a")
    sim.schedule(0.2, order.append, "b")
    sim.run_until_idle()
    assert order == ["a", "b", "c"]
    assert sim.now == pytest.approx(0.3)


def test_ties_broken_by_insertion_order():
    sim = Simulator()
    order = []
    for label in "abcde":
        sim.schedule(1.0, order.append, label)
    sim.run_until_idle()
    assert order == list("abcde")


def test_run_until_stops_and_advances_clock():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(5.0, fired.append, 5)
    sim.run(until=2.0)
    assert fired == [1]
    assert sim.now == pytest.approx(2.0)
    sim.run(until=10.0)
    assert fired == [1, 5]


def test_cancelled_events_do_not_fire():
    sim = Simulator()
    fired = []
    keep = sim.schedule(1.0, fired.append, "keep")
    cancel = sim.schedule(1.0, fired.append, "cancel")
    cancel.cancel()
    sim.run_until_idle()
    assert fired == ["keep"]
    assert keep.time == pytest.approx(1.0)


def test_nested_scheduling_from_callbacks():
    sim = Simulator()
    times = []

    def tick(remaining):
        times.append(sim.now)
        if remaining:
            sim.schedule(0.5, tick, remaining - 1)

    sim.schedule(0.0, tick, 3)
    sim.run_until_idle()
    assert times == pytest.approx([0.0, 0.5, 1.0, 1.5])


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-0.1, lambda: None)


def test_max_events_guard():
    sim = Simulator()

    def forever():
        sim.schedule(0.001, forever)

    sim.schedule(0.0, forever)
    with pytest.raises(RuntimeError):
        sim.run(until=1000.0, max_events=100)


def test_max_events_cap_does_not_lose_the_tripping_event():
    sim = Simulator()
    fired = []
    for i in range(5):
        sim.schedule(0.1 * (i + 1), fired.append, i)
    with pytest.raises(RuntimeError):
        sim.run(max_events=3)
    # Exactly the first three ran; the event that tripped the cap is
    # still queued, so resuming processes every remaining event.
    assert fired == [0, 1, 2]
    assert sim.pending_events() == 2
    sim.run_until_idle()
    assert fired == [0, 1, 2, 3, 4]
    assert sim.pending_events() == 0


def test_max_events_cap_ignores_cancelled_events():
    sim = Simulator()
    fired = []
    for i in range(3):
        sim.schedule(0.1 * (i + 1), fired.append, i)
    sim.schedule(0.05, fired.append, "x").cancel()
    sim.run(max_events=3)
    assert fired == [0, 1, 2]


def test_schedule_at_absolute_time():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: sim.schedule_at(3.0, fired.append, "x"))
    sim.run_until_idle()
    assert fired == ["x"]
    assert sim.now == pytest.approx(3.0)


def test_schedule_at_tolerates_float_ulp_in_the_past():
    # 0.1 + 0.2 == 0.30000000000000004: a callback firing at that instant
    # must still be able to schedule_at(0.3) computed independently.
    sim = Simulator()
    fired = []

    def outer():
        sim.schedule(0.2, inner)

    def inner():
        assert sim.now > 0.3  # off by one ulp
        sim.schedule_at(0.3, fired.append, "x")

    sim.schedule(0.1, outer)
    sim.run_until_idle()
    assert fired == ["x"]


def test_schedule_at_still_rejects_genuinely_past_times():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run_until_idle()
    with pytest.raises(ValueError):
        sim.schedule_at(0.5, lambda: None)


def test_pending_events_counts_uncancelled():
    sim = Simulator()
    a = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.pending_events() == 2
    a.cancel()
    assert sim.pending_events() == 1


def test_basic_order_ties_and_cancel():
    sim = Simulator()
    order = []
    sim.schedule(0.2, order.append, "c")
    sim.schedule(0.1, order.append, "a")
    sim.schedule(0.1, order.append, "b")  # same time: insertion order wins
    doomed = sim.schedule(0.15, order.append, "never")
    doomed.cancel()
    doomed.cancel()  # double-cancel is safe

    def reentrant():
        order.append("r1")
        sim.schedule(0.0, order.append, "r2")  # same-instant follow-up

    sim.schedule(0.3, reentrant)
    assert sim.pending_events() == 4  # cancelled event already excluded
    sim.run(until=1.0)
    assert order == ["a", "b", "c", "r1", "r2"]
    assert sim.pending_events() == 0
    assert sim.events_processed == 5


def test_run_until_boundary_preserves_pending():
    # Breaking on `until` must leave later events queued, then resume in
    # order.
    sim = Simulator()
    log = []
    sim.schedule(0.1, log.append, "a")
    sim.schedule(0.9, log.append, "b")
    sim.run(until=0.5)
    assert log == ["a"]
    assert sim.now == 0.5
    assert sim.pending_events() == 1
    sim.run_until_idle()
    assert log == ["a", "b"]
    assert sim.pending_events() == 0


# ----------------------------------------------------------------------
# Live-event accounting under churn
# ----------------------------------------------------------------------

def test_cancel_after_fire_does_not_corrupt_live_count():
    # A handle kept after its event executed (stale RTO timer handle
    # surviving connection teardown) used to decrement _live_events a
    # second time, driving the counter negative at scale.
    sim = Simulator()
    fired = sim.schedule(0.1, lambda: None)
    keeper = sim.schedule(0.5, lambda: None)
    sim.run(until=0.2)
    assert sim.pending_events() == 1
    fired.cancel()  # late cancel of an already-fired event
    fired.cancel()
    assert sim.pending_events() == 1
    sim.run_until_idle()
    assert keeper.cancelled is False
    assert sim.pending_events() == 0


def test_cancel_twice_counts_once():
    sim = Simulator()
    event = sim.schedule(0.1, lambda: None)
    sim.schedule(0.2, lambda: None)
    event.cancel()
    event.cancel()
    assert sim.pending_events() == 1
    sim.run_until_idle()
    assert sim.pending_events() == 0


def test_mass_cancel_rearm_drains_to_zero():
    # 5k timers armed, half cancelled and re-armed (RTO churn shape):
    # after draining, the O(1) live counter must read exactly zero.
    sim = Simulator()
    rng = random.Random(99)
    handles = [
        sim.schedule(rng.random() * 2.0, lambda: None) for _ in range(5000)
    ]
    for handle in rng.sample(handles, 2500):
        handle.cancel()
        sim.schedule(rng.random() * 2.0, lambda: None)
    assert sim.pending_events() == 5000
    sim.run_until_idle()
    assert sim.pending_events() == 0


# ----------------------------------------------------------------------
# Execution order against a list model
# ----------------------------------------------------------------------

class ListModel:
    """The engine's ordering contract, slowly: always run the earliest
    live entry, ties broken by insertion order."""

    def __init__(self):
        self.now, self.entries = 0.0, []

    def schedule(self, delay, callback, *args):
        entry = SimpleNamespace(time=self.now + delay, order=len(self.entries),
                                live=True, run=lambda: callback(*args))
        entry.cancel = lambda: setattr(entry, "live", False)
        self.entries.append(entry)
        return entry

    def run_until_idle(self):
        while any(entry.live for entry in self.entries):
            head = sorted((entry for entry in self.entries if entry.live),
                          key=lambda entry: (entry.time, entry.order))[0]
            head.live, self.now = False, head.time
            head.run()


@pytest.mark.parametrize("seed", [1, 7, 42])
def test_randomized_schedule_cancel_churn(seed):
    """Seeded storm of schedules, cancels (before and after fire), and
    re-entrant re-arms from microseconds to hours ahead."""

    def drive(sim):
        rng = random.Random(seed)
        log, handles = [], []

        def fire(tag):
            log.append((tag, sim.now))
            # Re-entrant churn: sometimes re-arm, sometimes cancel a
            # random outstanding handle (which may already have fired —
            # exactly the stale-RTO-handle shape).
            roll = rng.random()
            if roll < 0.3:
                handles.append(sim.schedule(rng.random() * 0.5, fire, tag + 10_000))
            elif roll < 0.5 and handles:
                handles[rng.randrange(len(handles))].cancel()

        for i in range(400):
            delay = rng.choice(
                [
                    rng.random() * 1e-4,
                    rng.random() * 0.05,
                    rng.random() * 10.0,
                    rng.random() * 300.0,
                    rng.random() * 9000.0,
                ]
            )
            handles.append(sim.schedule(delay, fire, i))
        for _ in range(80):
            handles[rng.randrange(len(handles))].cancel()
        sim.run_until_idle()
        return log

    sim = Simulator()
    log = drive(sim)
    assert log == drive(ListModel())
    assert len(log) > 300
    assert sim.pending_events() == 0


def test_schedule_shake_is_reproducible_per_seed():
    def order(shake_seed):
        sim = Simulator()
        sim.enable_schedule_shake(shake_seed)
        log = []
        for i in range(64):
            sim.schedule(0.25, log.append, i)  # all tied
        sim.run_until_idle()
        return log

    shaken = order(1234)
    assert shaken == order(1234)
    assert sorted(shaken) == list(range(64))
    assert shaken != list(range(64))
    assert shaken != order(99)
