"""The scored session pool: dial, reuse, retire, dispatch."""

import gc
import inspect
import weakref
from types import SimpleNamespace

import pytest

from repro.core.events import Event, EventDispatcher
from repro.core.server import JOIN_RATE_WINDOW
from repro.overload.world import OverloadConfig, OverloadWorld
from repro.scale.farm import Farm
from repro.scale.loadgen import ScaleConfig, ScaleWorld, run_scale
from repro.scale.pool import PoolConfig, PooledSession, SessionPool
from repro.scale.recovery import RecoveryConfig, RecoveryWorld


class FakeSim:
    def __init__(self):
        self.now = 0.0


class FakeConn:
    """A loss-free path, so its ``path_score`` is exactly ``score`` (its srtt)."""

    def __init__(self, score=0.01, is_usable=True):
        self._usable = is_usable
        self.tcp = SimpleNamespace(
            rto=SimpleNamespace(srtt=score),
            stats={"segments_sent": 0, "retransmissions": 0,
                   "fast_retransmits": 0, "timeouts": 0},
        )

    def usable(self):
        return self._usable


class FakeSession:
    """Just enough session surface for the pool: events + connections."""

    def __init__(self, score=0.01):
        self.events = EventDispatcher()
        self.connections = {0: FakeConn(score=score)}
        self.session_closed = False
        self.handshake_complete = False

    def establish(self):
        self.handshake_complete = True
        self.events.emit(Event.HANDSHAKE_DONE, conn_id=0)

    def fail_dial(self):
        self.events.emit(Event.CONN_FAILED, conn_id=0, reason="test")

    def close(self):
        self.session_closed = True
        self.events.emit(Event.SESSION_CLOSED)


class Harness:
    """Pool over fake sessions; dials are captured, not simulated."""

    def __init__(self, listeners=1, scores=None, **config):
        self.sim = FakeSim()
        self.dialed = []
        self.scores = list(scores or [])

        def dial(target):
            score = self.scores.pop(0) if self.scores else 0.01
            session = FakeSession(score=score)
            self.dialed.append((target, session))
            return session

        self.pool = SessionPool(
            self.sim,
            dial,
            listeners=list(range(listeners)),
            config=PoolConfig(**config),
        )

    def acquire(self):
        served = []
        self.pool.acquire(served.append)
        return served

    def last_session(self):
        return self.dialed[-1][1]


def test_acquire_dials_then_serves_on_handshake():
    h = Harness()
    served = h.acquire()
    assert len(h.dialed) == 1 and not served  # dialling, not ready yet
    h.last_session().establish()
    assert len(served) == 1
    assert served[0].state == PooledSession.READY
    assert served[0].uses == 1
    assert h.pool.counts["dials"] == 1


def test_release_makes_session_reusable():
    h = Harness()
    served = h.acquire()
    h.last_session().establish()
    entry = served[0]
    h.pool.release(entry)
    served2 = h.acquire()
    assert served2 == [entry]  # same session, no second dial
    assert len(h.dialed) == 1
    assert h.pool.counts["reused"] == 1


def test_best_path_score_wins_with_entry_id_tiebreak():
    h = Harness(max_sessions=3, scores=[0.05, 0.01, 0.01])
    entries = []
    for _ in range(3):
        h.pool.acquire(entries.append)
        h.last_session().establish()
    for entry in entries:
        h.pool.release(entry)
    picked = h.acquire()
    # Scores 0.05 / 0.01 / 0.01: best score wins, tie by lower entry id.
    assert picked[0].entry_id == 1


def test_release_failed_retires_and_counts():
    h = Harness()
    served = h.acquire()
    h.last_session().establish()
    h.pool.release(served[0], failed=True)
    assert served[0].state == PooledSession.RETIRED
    assert h.pool.counts["failed"] == 1
    assert h.pool.listeners[0].failures == 1


def test_dial_failure_redials_for_waiter():
    h = Harness()
    served = h.acquire()
    first = h.last_session()
    first.fail_dial()
    # The failed dial was retired and a replacement dial covers the
    # still-queued waiter.
    assert len(h.dialed) == 2
    assert h.pool.counts["failed"] == 1
    h.last_session().establish()
    assert len(served) == 1


def test_stats_are_the_one_store_of_the_pool_counts():
    # ``stats()`` reads the pool's own counts; no telemetry hub mirrors
    # them, so the pool takes none.
    assert "observability" not in inspect.signature(SessionPool).parameters
    h = Harness()
    served = h.acquire()
    h.last_session().establish()
    h.pool.release(served[0])
    h.acquire()
    h.pool.release(served[0], failed=True)
    assert h.pool.stats() == {
        "dials": 1, "reused": 1, "retired": 1, "failed": 1, "redials": 0,
        "open": 0, "ready": 0, "waiters": 0,
    }


def test_waiters_queue_at_capacity_and_reuse_on_release():
    h = Harness(max_sessions=1)
    first = h.acquire()
    h.last_session().establish()
    second = h.acquire()
    assert not second and h.pool.waiter_count() == 1
    assert len(h.dialed) == 1  # capacity stops a second dial
    h.pool.release(first[0])
    assert second == [first[0]]  # waiter served by the freed session


def test_multiplexing_respects_max_streams_per_session():
    h = Harness(max_streams_per_session=2)
    first = h.acquire()
    h.last_session().establish()
    second = h.acquire()
    assert second == [first[0]] and first[0].active == 2
    third = h.acquire()
    assert not third  # session saturated; a second dial is in flight
    assert len(h.dialed) == 2


def test_maintain_retires_sessions_with_no_usable_path():
    h = Harness()
    served = h.acquire()
    h.last_session().establish()
    entry = served[0]
    h.pool.release(entry)
    entry.session.connections[0]._usable = False
    h.pool.maintain()
    assert entry.state == PooledSession.RETIRED


def test_drain_closes_everything_and_blocks_acquire():
    h = Harness(max_sessions=3)
    served = []
    for _ in range(3):
        h.pool.acquire(served.append)  # the earlier dials are still connecting
    assert len(h.dialed) == 3
    for _, session in h.dialed:
        session.establish()
    for entry in served:
        h.pool.release(entry)
    closed = h.pool.drain()
    assert closed == 3
    assert all(session.session_closed for _, session in h.dialed)
    with pytest.raises(RuntimeError):
        h.pool.acquire(lambda e: None)


def test_dispatch_prefers_faster_listener():
    h = Harness(listeners=2, max_sessions=8)
    # Round 1: both untried listeners score 0 and get tried in order.
    e0 = h.acquire()
    assert h.dialed[0][0] == 0
    h.sim.now = 0.2
    h.last_session().establish()  # listener 0: 200 ms handshake
    e1 = h.acquire()
    assert h.dialed[1][0] == 1
    h.sim.now = 0.25
    h.last_session().establish()  # listener 1: 50 ms handshake
    h.acquire()
    assert h.dialed[2][0] == 1  # the faster listener wins the next dial


def test_dispatch_penalizes_failing_listener():
    h = Harness(listeners=2, max_sessions=8)
    h.acquire()
    h.sim.now = 0.05
    h.last_session().establish()  # listener 0 handshakes fine (50 ms)
    h.acquire()
    h.last_session().fail_dial()  # listener 1's dial fails...
    h.last_session().establish()  # (the redial went somewhere)
    stats = {s.target: s for s in h.pool.listeners}
    assert stats[1].failures == 1
    # With one failure out of one dial, listener 1's score is inflated
    # past listener 0's measured-but-fast score.
    assert stats[1].score() > stats[0].score()


# -- end to end over the simulator ------------------------------------------


def test_small_scale_run_reuses_and_drains_clean():
    config = ScaleConfig(
        sessions=20,
        reuse_fraction=0.5,
        client_hosts=2,
        listeners=2,
        arrival_span=0.4,
    )
    # Hold the world past the run, as every ``on_world`` caller and the
    # benchmark do: a reaped server session must not stay reachable
    # through it.
    held, accepted = [], []

    def on_world(world):
        held.append(world)
        for server in world.servers:
            def on_session(session, inner=server.on_session):
                accepted.append(weakref.ref(session))
                inner(session)

            server.on_session = on_session

    result = run_scale(config, on_world=on_world)
    gc.collect()
    assert len(accepted) == 20
    assert sum(ref() is not None for ref in accepted) == 0
    assert result.requests_started == 30
    assert result.requests_completed == 30
    assert result.requests_failed == 0
    assert result.peak_concurrent == 20
    assert result.pool_stats["reused"] >= 10  # wave B reused idle sessions
    assert result.pool_stats["open"] == 0  # fully drained
    assert result.server_sessions_reaped >= 20
    assert result.live_events == 0  # no leaked timers after teardown
    assert len(result.ttfb) == 30
    assert all(t > 0 for t in result.ttfb)

    # The same sweep drops the JOIN rate limit's per-peer stamps once a
    # peer has stopped joining for a whole window (they were kept for
    # the listener's lifetime); a peer still joining keeps its entry.
    world, server = held[0], held[0].servers[0]
    window = JOIN_RATE_WINDOW

    def join(session):
        remote = session.primary.tcp.remote_addr
        session.handshake(conn_id=session.connect(str(remote), port=server.port))
        world.sim.run(until=world.sim.now + 0.2)

    quiet, busy = (
        world.dial(world.client_context(seed_offset=90 + i), server.port)
        for i in range(2)
    )
    world.sim.run(until=world.sim.now + 0.2)
    quiet_addr, busy_addr = (
        str(session.primary.tcp.local_addr) for session in (quiet, busy)
    )
    assert quiet_addr != busy_addr
    join(quiet)
    join(busy)
    assert set(server._join_times) == {quiet_addr, busy_addr}
    world.sim.run(until=world.sim.now + window)
    join(busy)
    server.reap_closed()
    assert set(server._join_times) == {busy_addr}
    assert len(busy._active_conns()) == 3  # the limiter itself let it through


@pytest.mark.parametrize(
    "world_cls, config, hosts, listeners",
    [
        (ScaleWorld, ScaleConfig(sessions=4, client_hosts=2, listeners=3), 2, 3),
        (RecoveryWorld, RecoveryConfig(sessions=4), 4, 2),
        (OverloadWorld, OverloadConfig(client_hosts=3), 3, 1),
    ],
    ids=["churn", "crash-restart", "overload"],
)
def test_every_world_stands_on_the_one_farm(world_cls, config, hosts, listeners):
    # The three regimes are comparable only on an identical testbed:
    # topology, stacks, PKI and listeners come from Farm, and a world's
    # own constructor builds none of them.
    assert issubclass(world_cls, Farm)
    own = inspect.getsource(world_cls.__init__)
    for part in ("Network(", "TcpStack(", "CertificateAuthority(", "TcplsServer("):
        assert part not in own
    world = world_cls(config)
    assert len(world.links) == len(world.client_stacks) == hosts
    assert [server.port for server in world.servers] == [
        443 + i for i in range(listeners)
    ]
    assert all(server.context is world.server_ctx for server in world.servers)
    assert world.trust.verify(
        world.server_ctx.identity.certificate, expected_subject="farm.example"
    )
