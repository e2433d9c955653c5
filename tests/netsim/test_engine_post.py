"""``Simulator.post`` against its definition, ``schedule`` with the handle dropped.

Random programs of post / schedule / cancel / re-arm (some posted
callbacks post or schedule again from inside the run), with
``run(until=...)`` at random cut points and runs cut short by
``max_events``, run twice: once as written, once with every ``post``
replaced by a ``schedule`` whose handle nobody keeps.  Both must execute
the same (time, seq, label) trace, raise at the same ``max_events`` cut
and agree on ``events_processed`` and ``pending_events()`` after every
step, with and without schedule shake.  Every time is a multiple of
1/4, so equal-time ties between posted and scheduled callbacks are
common and the float sums are exact.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.engine import Simulator

DELAYS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5])
SLOT = st.integers(min_value=0, max_value=15)

OPS = st.one_of(
    st.tuples(st.just("post"), DELAYS),
    st.tuples(st.just("schedule"), DELAYS),
    st.tuples(st.just("cancel"), SLOT),
    st.tuples(st.just("rearm"), SLOT, DELAYS),
    # A posted callback that queues one more, posted or scheduled, later
    # (never at zero delay, so a chain stays finite).
    st.tuples(st.just("poster"), DELAYS, st.booleans(), st.sampled_from([0.25, 0.5])),
    st.tuples(st.just("run"), st.sampled_from([0.0, 0.25, 0.75, 1.0, 2.5])),
    st.tuples(st.just("run_capped"), st.sampled_from([0.5, 2.5]), st.integers(0, 4)),
)


class Driver:
    """One engine, posting (``posts``) or scheduling every callback."""

    def __init__(self, posts, shake):
        self.sim = Simulator()
        if shake is not None:
            self.sim.enable_schedule_shake(shake)
        self.posts = posts
        self.handles = []
        self.trace = []
        self.raised = []
        self._key = None
        self._labels = 0
        self.sim.attach_event_hook(self._hook)

    def _hook(self, time, seq):
        self._key = (time, seq)

    def _fire(self, label, nested):
        self.trace.append((*self._key, label))
        if nested is not None:
            then_post, delay = nested
            self.queue(delay, None, then_post)

    def queue(self, delay, nested, post):
        self._labels += 1
        if post and self.posts:
            self.sim.post(delay, self._fire, self._labels, nested)
        else:
            handle = self.sim.schedule(delay, self._fire, self._labels, nested)
            if not post:
                self.handles.append(handle)

    def apply(self, op):
        kind = op[0]
        if kind in ("post", "schedule"):
            self.queue(op[1], None, kind == "post")
        elif kind == "poster":
            self.queue(op[1], op[2:], True)
        elif kind == "run":
            self.sim.run(until=self.sim.now + op[1])
        elif kind == "run_capped":
            try:
                self.sim.run(until=self.sim.now + op[1], max_events=op[2])
            except RuntimeError:
                self.raised.append(len(self.trace))
        elif self.handles:
            handle = self.handles[op[1] % len(self.handles)]
            if kind == "cancel":
                handle.cancel()
            elif handle.pending:
                self.sim.reschedule(handle, op[2])

    def state(self):
        sim = self.sim
        return self.trace, self.raised, sim.events_processed, sim.pending_events(), sim.now


@pytest.mark.parametrize("shake", [None, 7, 0xBEEF])
@settings(max_examples=150, deadline=None)
@given(program=st.lists(OPS, max_size=60))
def test_post_matches_schedule_without_the_handle(shake, program):
    posting, scheduling = Driver(True, shake), Driver(False, shake)
    for op in program + [("run", 2.5)] * 4:
        posting.apply(op)
        scheduling.apply(op)
        assert posting.state() == scheduling.state(), op


def test_post_refuses_the_past_and_returns_no_handle():
    sim = Simulator()
    fired = []
    assert sim.post(0.5, fired.append, "delivered") is None
    assert sim.pending_events() == 1
    with pytest.raises(ValueError):
        sim.post(-0.5, fired.append, "never")
    sim.run_until_idle()
    assert fired == ["delivered"] and sim.now == 0.5
    assert sim.events_processed == 1 and sim.pending_events() == 0
