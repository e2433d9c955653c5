"""Regression tests for scheduler edge cases flushed out at scale.

Two bug classes, both of which only bite under many-session churn:

- the falsy ``srtt or 1e9`` coercion that demoted a *measured* zero RTT
  (legal on a zero-delay simulated link) to worst-case "unmeasured";
- a usable-set inconsistency where one scheduler handed chunks to
  zero-window connections the others would refuse, silently stalling
  the chunk in aggregation mode.
"""

import pytest

from repro.core.health import UNMEASURED_RTT, path_score
from repro.core.scheduler import CwndAwareScheduler, PinnedScheduler
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


ALL_SCHEDULERS = [PinnedScheduler, CwndAwareScheduler]


# ----------------------------------------------------------------------
# srtt sentinel: measured 0.0 is fast, None is unmeasured
# ----------------------------------------------------------------------

def test_rto_estimator_starts_unmeasured():
    rto = RtoEstimator()
    assert rto.srtt is None
    rto.on_measurement(0.0)  # zero-delay link: legal sample
    assert rto.srtt == 0.0
    assert rto.rto == rto.min_rto


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
    # scheduler must route around conn 0 (picking it would silently
    # stall the chunk).
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
