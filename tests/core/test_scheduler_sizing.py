"""Scheduler and record-sizing policy units."""

import pytest
from hypothesis import given, strategies as st

from repro.core.record_sizing import RecordSizer, TOTAL_OVERHEAD
from repro.core.scheduler import (
    CwndAwareScheduler,
    PinnedScheduler,
    make_scheduler,
)


class FakeConn:
    def __init__(self, conn_id, usable=True, room=10000):
        self.conn_id = conn_id
        self._usable = usable
        self._room = room

    def usable(self):
        return self._usable

    def send_room(self):
        return self._room


class FakeStream:
    def __init__(self, conn_id):
        self.conn_id = conn_id


def test_factory():
    assert isinstance(make_scheduler("pinned"), PinnedScheduler)
    assert isinstance(make_scheduler("aggregate"), CwndAwareScheduler)
    for name in ("magic", "Pinned", "hol_avoidance", "cwnd_aware", "rr"):
        with pytest.raises(ValueError):
            make_scheduler(name)


def test_pinned_only_uses_own_connection():
    conns = [FakeConn(0), FakeConn(1)]
    scheduler = PinnedScheduler()
    assert scheduler.pick(FakeStream(conn_id=1), conns).conn_id == 1
    assert scheduler.pick(FakeStream(conn_id=9), conns) is None


def test_pinned_skips_unusable():
    conns = [FakeConn(0, usable=False)]
    assert PinnedScheduler().pick(FakeStream(conn_id=0), conns) is None


def test_cwnd_aware_prefers_most_room():
    conns = [FakeConn(0, room=100), FakeConn(1, room=9000)]
    assert CwndAwareScheduler().pick(FakeStream(0), conns).conn_id == 1


def test_cwnd_aware_returns_none_when_all_full():
    conns = [FakeConn(0, room=0), FakeConn(1, room=-5)]
    assert CwndAwareScheduler().pick(FakeStream(0), conns) is None


# ---------------------------------------------------------------------------
# RecordSizer
# ---------------------------------------------------------------------------


def test_fixed_sizer_always_max():
    sizer = RecordSizer(max_payload=8000, match_cwnd=False)
    assert sizer.chunk_size(FakeConn(0, room=100)) == 8000


def test_matched_sizer_fits_window():
    sizer = RecordSizer(max_payload=16000, match_cwnd=True)
    conn = FakeConn(0, room=5000)
    assert sizer.chunk_size(conn) == 5000 - TOTAL_OVERHEAD


def test_matched_sizer_caps_at_max():
    sizer = RecordSizer(max_payload=16000, match_cwnd=True)
    assert sizer.chunk_size(FakeConn(0, room=10**6)) == 16000


def test_fragmentation_accounting():
    sizer = RecordSizer(max_payload=16000)
    sizer.account(16000, FakeConn(0, room=100))   # fragmented
    sizer.account(1000, FakeConn(0, room=99999))  # fits
    stats = sizer.stats()
    assert stats == {"records": 2, "fragmented": 1, "fragmented_ratio": 0.5}


def test_invalid_max_payload():
    with pytest.raises(ValueError):
        RecordSizer(max_payload=0)


# ---------------------------------------------------------------------------
# One room rule, against the parent's (17365ee) decision frozen here
# ---------------------------------------------------------------------------


def _parent_pick(mode, stream, conns):
    """The old pick, then the pump's "skip unless room > TOTAL_OVERHEAD"."""
    if mode == "pinned":
        conn = next((c for c in conns if c.conn_id == stream.conn_id
                     and c.usable() and c.send_room() > 0), None)
    else:
        conn, best_room = None, 0
        for c in conns:
            if c.usable() and c.send_room() > best_room:
                conn, best_room = c, c.send_room()
    if conn is None or conn.send_room() <= 43:
        return None
    return conn


def _parent_chunk_size(max_payload, room):
    usable = room - 43
    if usable <= 0:
        return min(max_payload, 1400)
    return max(min(max_payload, usable), 1)


ROOMS = st.sampled_from([0, 1, 42, 43, 44, 1400, 20000])


@given(
    st.lists(st.tuples(st.booleans(), ROOMS), min_size=1, max_size=3),
    st.integers(min_value=0, max_value=3),
    st.sampled_from([1, 100, 16000]),
)
def test_room_rule_matches_the_parents_pick_then_skip(specs, stream_conn, max_payload):
    assert TOTAL_OVERHEAD == 43
    conns = [FakeConn(i, usable=u, room=r) for i, (u, r) in enumerate(specs)]
    stream = FakeStream(stream_conn)
    for mode in ("pinned", "aggregate"):
        assert make_scheduler(mode).pick(stream, conns) is _parent_pick(
            mode, stream, conns
        )
    sizer = RecordSizer(max_payload=max_payload, match_cwnd=True)
    for conn in conns:
        if conn.send_room() > 43:
            assert sizer.chunk_size(conn) == _parent_chunk_size(
                max_payload, conn.send_room()
            )
