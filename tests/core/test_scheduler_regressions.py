"""Regression tests for scheduler edge cases flushed out at scale.

Two bug classes, both of which only bite under many-session churn:

- the falsy ``srtt or 1e9`` coercion that demoted a *measured* zero RTT
  (legal on a zero-delay simulated link) to worst-case "unmeasured";
- the usable-set inconsistency where round-robin handed chunks to
  zero-window connections the cwnd/RTT/health schedulers would refuse,
  silently stalling the chunk in aggregation mode.
"""

import pytest

from repro.core.health import UNMEASURED_RTT, path_score
from repro.core.scheduler import (
    CwndAwareScheduler,
    HealthAwareScheduler,
    LowestRttScheduler,
    PinnedScheduler,
    RoundRobinScheduler,
)
from repro.tcp.rto import RtoEstimator


class FakeTcp:
    def __init__(self, srtt):
        class Rto:
            pass

        self.rto = Rto()
        self.rto.srtt = srtt
        self.stats = {
            "segments_sent": 10,
            "retransmissions": 0,
            "fast_retransmits": 0,
            "timeouts": 0,
        }

    def effective_mss(self):
        return 1400


class FakeConn:
    def __init__(self, conn_id, usable=True, room=10000, srtt=0.01):
        self.conn_id = conn_id
        self._usable = usable
        self._room = room
        self.tcp = FakeTcp(srtt)

    def usable(self):
        return self._usable

    def send_room(self):
        return self._room


class FakeStream:
    def __init__(self, conn_id):
        self.conn_id = conn_id


ALL_SCHEDULERS = [
    PinnedScheduler,
    RoundRobinScheduler,
    CwndAwareScheduler,
    LowestRttScheduler,
    HealthAwareScheduler,
]


# ----------------------------------------------------------------------
# srtt sentinel: measured 0.0 is fast, None is unmeasured
# ----------------------------------------------------------------------

def test_rto_estimator_starts_unmeasured():
    rto = RtoEstimator()
    assert rto.srtt is None
    rto.on_measurement(0.0)  # zero-delay link: legal sample
    assert rto.srtt == 0.0
    assert rto.rto == rto.min_rto


def test_lowest_rtt_prefers_measured_zero_rtt_over_slow_path():
    # Old code: `srtt or 1e9` coerced the measured 0.0 to 1e9 and the
    # genuinely instant path lost to a 50 ms one.
    conns = [FakeConn(0, srtt=0.050), FakeConn(1, srtt=0.0)]
    assert LowestRttScheduler().pick(FakeStream(0), conns).conn_id == 1


def test_lowest_rtt_unmeasured_sorts_last():
    conns = [FakeConn(0, srtt=None), FakeConn(1, srtt=0.080)]
    assert LowestRttScheduler().pick(FakeStream(0), conns).conn_id == 1


def test_health_fallback_prefers_measured_zero_rtt():
    conns = [FakeConn(0, srtt=0.050), FakeConn(1, srtt=0.0)]
    assert HealthAwareScheduler().pick(FakeStream(0), conns).conn_id == 1


def test_health_score_treats_zero_rtt_as_measured():
    fast = FakeConn(0, srtt=0.0)
    unknown = FakeConn(1, srtt=None)
    assert path_score(fast) == 0.0
    assert path_score(unknown) == pytest.approx(UNMEASURED_RTT)


# ----------------------------------------------------------------------
# Uniform usable set: no scheduler may pick a zero-window connection
# ----------------------------------------------------------------------

@pytest.mark.parametrize("scheduler_cls", ALL_SCHEDULERS)
def test_zero_window_connection_never_picked(scheduler_cls):
    # conn 0 is established but has no window; conn 1 has room.  Every
    # scheduler must route around conn 0 (round-robin used to pick it
    # and silently stall the chunk).
    conns = [FakeConn(0, room=0), FakeConn(1, room=5000)]
    scheduler = scheduler_cls()
    for _ in range(4):
        picked = scheduler.pick(FakeStream(1), conns)
        assert picked is not None
        assert picked.conn_id == 1


@pytest.mark.parametrize("scheduler_cls", ALL_SCHEDULERS)
def test_all_zero_window_returns_none(scheduler_cls):
    conns = [FakeConn(0, room=0), FakeConn(1, room=0)]
    assert scheduler_cls().pick(FakeStream(0), conns) is None


def test_round_robin_rotation_survives_zero_window_detour():
    # While conn 1 is zero-window the rotation serves 0 and 2; once the
    # window reopens conn 1 rejoins the cycle in id order.
    conns = [FakeConn(0), FakeConn(1, room=0), FakeConn(2)]
    scheduler = RoundRobinScheduler()
    picks = [scheduler.pick(FakeStream(0), conns).conn_id for _ in range(4)]
    assert picks == [0, 2, 0, 2]
    conns[1]._room = 5000
    picks = [scheduler.pick(FakeStream(0), conns).conn_id for _ in range(3)]
    assert picks == [0, 1, 2]
