"""``Simulator.reschedule`` against its definition, ``cancel()`` + ``schedule()``.

Random programs of schedule / cancel / re-arm (later, earlier, at the
same instant, right after the event fired or was cancelled, and from
inside a running callback) with ``run(until=...)`` at random cut points
run twice: once re-arming pending events in place, once through cancel
+ schedule.  Both must execute the same (time, seq, label) trace and
agree on ``events_processed`` and ``pending_events()`` after every step,
with and without schedule shake.  Every time is a multiple of 1/4, so
equal-time ties are common and the float sums are exact.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.engine import Simulator

DELAYS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 3.0])
SLOT = st.integers(min_value=0, max_value=15)

OPS = st.one_of(
    st.tuples(st.just("schedule"), DELAYS),
    st.tuples(st.just("cancel"), SLOT),
    st.tuples(st.just("rearm"), SLOT, DELAYS),
    st.tuples(st.just("rearm_same"), SLOT),
    # An event whose callback re-arms another slot (an ACK pushing back
    # the RTO); the nested delay is never zero so a chain stays finite.
    st.tuples(st.just("rearmer"), DELAYS, SLOT, st.sampled_from([0.25, 0.5, 2.0])),
    st.tuples(st.just("run"), st.sampled_from([0.0, 0.25, 0.75, 1.0, 2.5])),
)


class Driver:
    """One engine under one re-arm discipline, logging what executes."""

    def __init__(self, in_place, shake):
        self.sim = Simulator()
        if shake is not None:
            self.sim.enable_schedule_shake(shake)
        self.in_place = in_place
        self.handles = []
        self.trace = []
        self._key = None
        self.sim.attach_event_hook(self._hook)

    def _hook(self, time, seq):
        self._key = (time, seq)

    def _fire(self, label, nested):
        self.trace.append((*self._key, label))
        if nested is not None:
            self.rearm(*nested)

    def rearm(self, slot, delay):
        handle = self.handles[slot % len(self.handles)]
        if self.in_place and handle.pending:
            self.sim.reschedule(handle, delay)
        else:
            handle.cancel()
            self.handles[slot % len(self.handles)] = self.sim.schedule(
                delay, self._fire, *handle.args
            )

    def apply(self, op):
        kind = op[0]
        if kind in ("schedule", "rearmer"):
            nested = op[2:] if kind == "rearmer" else None
            self.handles.append(
                self.sim.schedule(op[1], self._fire, len(self.handles), nested)
            )
        elif not self.handles and kind != "run":
            return
        elif kind == "cancel":
            self.handles[op[1] % len(self.handles)].cancel()
        elif kind == "rearm":
            self.rearm(op[1], op[2])
        elif kind == "rearm_same":
            handle = self.handles[op[1] % len(self.handles)]
            self.rearm(op[1], max(handle.time - self.sim.now, 0.0))
        else:
            self.sim.run(until=self.sim.now + op[1])

    def state(self):
        return self.trace, self.sim.events_processed, self.sim.pending_events()


@pytest.mark.parametrize("shake", [None, 7, 0xBEEF])
@settings(max_examples=150, deadline=None)
@given(program=st.lists(OPS, max_size=60))
def test_reschedule_matches_cancel_plus_schedule(shake, program):
    in_place, reference = Driver(True, shake), Driver(False, shake)
    for op in program + [("run", 2.5), ("run", 2.5)] * 4:
        in_place.apply(op)
        reference.apply(op)
        assert in_place.state() == reference.state(), op


def test_reschedule_pushes_only_for_an_earlier_key():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, fired.append, "rto")
    sim.reschedule(event, 2.0)  # later: the entry at 1.0 stays responsible
    assert len(sim._queue) == 1
    sim.reschedule(event, 0.5)  # earlier: a new entry takes over
    assert len(sim._queue) == 2
    sim.reschedule(event, 3.0)
    sim.run(until=1.5)
    # The 0.5 entry was re-pushed at 3.0, the 1.0 entry dropped as stale.
    assert fired == [] and len(sim._queue) == 1
    assert sim.events_processed == 0 and sim.pending_events() == 1
    sim.run_until_idle()
    assert fired == ["rto"] and sim.now == 3.0 and not event.pending


def test_reschedule_refuses_what_is_not_pending():
    sim = Simulator()
    fired = sim.schedule(0.1, lambda: None)
    cancelled = sim.schedule(0.2, lambda: None)
    cancelled.cancel()
    sim.run_until_idle()
    for event in (fired, cancelled):
        assert not event.pending
        with pytest.raises(ValueError):
            sim.reschedule(event, 1.0)
    other = Simulator().schedule(1.0, lambda: None)
    with pytest.raises(ValueError):
        sim.reschedule(other, 1.0)
    live = sim.schedule(1.0, lambda: None)
    with pytest.raises(ValueError):
        sim.reschedule(live, -0.5)
