"""The failover / reconnect machine of ``repro.core.recovery``, alone.

Four parts, all against the real session in ``fault_world`` (no mocks):

- every (state, input) pair of the redial loop lands in the tabled
  state, or is listed as ignored with the guard that ignores it;
- the session-event timeline of three recovery worlds is the one
  captured at the commit before the machine was extracted (7e4d777),
  and the reconnect, JOIN and backoff records the tracer kept there
  derive from that timeline alone; a dead connection's TCP is sampled
  once, at its own failure;
- attempts that fail reach the event timeline, and ``crash()`` disarms
  a reconnect in flight;
- ``path_score`` returns the floats the formula with the removed
  tick state (``loss_ewma`` 0.0, nothing "seen") returned.
"""

from types import SimpleNamespace

import pytest

from repro.analysis import reset_process_globals
from repro.core import recovery
from repro.core.events import Event
from repro.core.health import path_score
from repro.core.recovery import ReconnectState
from repro.core.session import TcplsSession
from repro.faults import FaultPlan

from tests.faults.conftest import establish_paths, fault_world, run_scenario

IDLE, DIALLING, BACKOFF = ReconnectState


# -- the state table ---------------------------------------------------------


class Scene:
    """A two-path client put into one state of the redial loop, with a
    2 s JOIN timeout; ``monkeypatch`` undoes the constants it patches."""

    def __init__(self, state, monkeypatch):
        self.monkeypatch = monkeypatch
        monkeypatch.setattr(recovery, "JOIN_TIMEOUT", 2.0)
        self.world = establish_paths(fault_world(paths=2))
        self.client = self.world.client
        self.rec = self.client.recovery
        self.former_attempt = None
        assert self.rec.state is IDLE and len(self.client._active_conns()) == 2
        if state is not IDLE:
            self.fail(self.client.connections[0])
            assert self.rec.state is DIALLING
        if state is BACKOFF:
            self.former_attempt = self.rec.attempt_conn
            self.fail(self.former_attempt)
        assert self.rec.state is state
        self.retries = len(self.client.events.events_named(Event.CONN_RETRY))

    def fail(self, conn):
        self.client._fail_connection(conn, "injected")

    def stranger(self):
        """A fresh connection on path 1 that is nobody's attempt."""
        topo = self.world.topo
        conn_id = self.client.connect(topo.server_addrs[1], src=topo.client_addrs[1])
        return self.client.connections[conn_id]

    def not_the_attempt(self):
        return self.former_attempt or self.rec.failed or self.stranger()

    def fire_timer(self):
        """Run the simulator up to (and including) the armed timer."""
        self.world.run(until=self.rec._timer.time)

    def drain_purse(self):
        while self.client.cookie_purse.withdraw() is not None:
            pass


def _failed_active(scene):
    scene.fail(scene.client._active_conns()[0])


def _failed_attempt(scene):
    scene.fail(scene.rec.attempt_conn or scene.not_the_attempt())


def _failed_stranger(scene):
    conn = scene.stranger()
    scene.client.handshake(conn_id=conn.conn_id)  # an application JOIN in flight
    scene.fail(conn)


def _joined_attempt(scene):
    if scene.rec.attempt_conn is None:
        scene.rec.joined(scene.not_the_attempt())
        return
    conn = scene.rec.attempt_conn
    scene.world.run(until=scene.world.sim.now + 0.5)  # the JOIN round trip
    assert conn.state == "ACTIVE"


def _joined_stranger(scene):
    scene.rec.joined(scene.stranger())


def _join_timeout_current(scene):
    if scene.rec.attempt_conn is None:
        scene.rec._join_timed_out(scene.not_the_attempt())
        return
    scene.world.topo.links[0].set_down()  # the attempt's SYN goes nowhere
    scene.fire_timer()


def _join_timeout_stale(scene):
    scene.rec._join_timed_out(scene.not_the_attempt())


def _backoff_expiry(scene):
    timer = scene.rec._timer
    if scene.rec.state is BACKOFF:
        assert timer.callback == scene.rec._backoff_expired
        scene.fire_timer()
    else:  # nothing to expire: no backoff timer is armed in this state
        assert timer is None or timer.callback != scene.rec._backoff_expired


def _at_next_dial(scene):
    """Reach the point where the loop decides whether to dial again."""
    if scene.rec.state is IDLE:
        _failed_active(scene)
    elif scene.rec.state is BACKOFF:
        scene.fire_timer()


def _budget_exhausted(scene):
    scene.monkeypatch.setattr(recovery, "RECONNECT_MAX_RETRIES", scene.rec.attempt)
    _at_next_dial(scene)


def _purse_empty(scene):
    scene.drain_purse()
    _at_next_dial(scene)


def _cancel(scene):
    scene.rec.cancel()


INPUTS = {
    "conn_failed(active)": _failed_active,
    "conn_failed(attempt)": _failed_attempt,
    "conn_failed(stranger)": _failed_stranger,
    "joined(attempt)": _joined_attempt,
    "joined(stranger)": _joined_stranger,
    "join timeout (current)": _join_timeout_current,
    "join timeout (stale)": _join_timeout_stale,
    "backoff expiry": _backoff_expiry,
    "budget exhausted": _budget_exhausted,
    "purse empty": _purse_empty,
    "cancel": _cancel,
}

NO_ATTEMPT = "attempt_conn is None outside DIALLING, so no connection is 'the attempt'"
NOT_ACTIVE = "conn_failed: not was_active"
ONE_EPISODE = "_begin: state is not IDLE (queued for _redial_next after joined)"
NOT_OURS = "joined: conn is not attempt_conn"
STALE_TIMER = "_join_timed_out: conn is not attempt_conn"
NO_BACKOFF_TIMER = "_enter cancelled the backoff timer; none is armed here"
READ_AT_DIAL = "only _dial reads the budget and the purse"

#: (state, input) -> the state it lands in, or the guard that ignores it.
TABLE = {
    (IDLE, "conn_failed(active)"): DIALLING,
    (IDLE, "conn_failed(attempt)"): NO_ATTEMPT,
    (IDLE, "conn_failed(stranger)"): NOT_ACTIVE,
    (IDLE, "joined(attempt)"): NO_ATTEMPT,
    (IDLE, "joined(stranger)"): NOT_OURS,
    (IDLE, "join timeout (current)"): NO_ATTEMPT,
    (IDLE, "join timeout (stale)"): STALE_TIMER,
    (IDLE, "backoff expiry"): NO_BACKOFF_TIMER,
    (IDLE, "budget exhausted"): IDLE,   # first dial refused: abandoned at once
    (IDLE, "purse empty"): IDLE,        # likewise, as cookies_exhausted
    (IDLE, "cancel"): IDLE,
    (DIALLING, "conn_failed(active)"): ONE_EPISODE,
    (DIALLING, "conn_failed(attempt)"): BACKOFF,
    (DIALLING, "conn_failed(stranger)"): NOT_ACTIVE,
    (DIALLING, "joined(attempt)"): IDLE,
    (DIALLING, "joined(stranger)"): NOT_OURS,
    (DIALLING, "join timeout (current)"): BACKOFF,
    (DIALLING, "join timeout (stale)"): STALE_TIMER,
    (DIALLING, "backoff expiry"): NO_BACKOFF_TIMER,
    (DIALLING, "budget exhausted"): READ_AT_DIAL,
    (DIALLING, "purse empty"): READ_AT_DIAL,
    (DIALLING, "cancel"): IDLE,
    (BACKOFF, "conn_failed(active)"): ONE_EPISODE,
    (BACKOFF, "conn_failed(attempt)"): NO_ATTEMPT,
    (BACKOFF, "conn_failed(stranger)"): NOT_ACTIVE,
    (BACKOFF, "joined(attempt)"): NO_ATTEMPT,
    (BACKOFF, "joined(stranger)"): NOT_OURS,
    (BACKOFF, "join timeout (current)"): NO_ATTEMPT,
    (BACKOFF, "join timeout (stale)"): STALE_TIMER,
    (BACKOFF, "backoff expiry"): DIALLING,
    (BACKOFF, "budget exhausted"): IDLE,
    (BACKOFF, "purse empty"): IDLE,
    (BACKOFF, "cancel"): IDLE,
}


@pytest.fixture
def make_scene(monkeypatch):
    """``make_scene(state)``: a ``Scene`` whose patches end with the test."""
    return lambda state: Scene(state, monkeypatch)


def test_the_table_covers_every_state_and_input():
    assert set(TABLE) == {(s, i) for s in ReconnectState for i in INPUTS}


def _check_armed(rec):
    """Each state holds exactly what it armed, nothing of another's."""
    if rec.state is IDLE:
        assert rec._timer is None and rec.attempt_conn is None
    elif rec.state is DIALLING:
        assert rec.attempt_conn is not None
        assert rec._timer.callback == rec._join_timed_out
        assert rec._timer.args == (rec.attempt_conn,) and not rec._timer.cancelled
    else:
        assert rec.attempt_conn is None
        assert rec._timer.callback == rec._backoff_expired
        assert not rec._timer.cancelled


@pytest.mark.parametrize(
    "state, name", sorted(TABLE, key=lambda pair: (pair[0].value, pair[1])),
    ids=lambda value: getattr(value, "value", value),
)
def test_every_pair_lands_where_the_table_says(state, name, make_scene):
    scene = make_scene(state)
    rec, expected = scene.rec, TABLE[state, name]
    armed, attempt, episode = rec._timer, rec.attempt_conn, rec.failed
    INPUTS[name](scene)
    if isinstance(expected, ReconnectState):
        assert rec.state is expected
    else:  # ignored: same state, same attempt, same timer, no new dial
        assert rec.state is state, expected
        assert rec._timer is armed and rec.attempt_conn is attempt, expected
        assert rec.failed is episode, expected
        retries = scene.client.events.events_named(Event.CONN_RETRY)
        assert len(retries) == scene.retries, expected
    _check_armed(rec)
    if armed is not None and rec._timer is not armed:
        assert armed.cancelled or armed.time <= scene.world.sim.now  # disarmed or fired


def test_second_path_failing_while_dialling_is_redialled_after_joined(make_scene):
    scene = make_scene(DIALLING)
    client, rec = scene.client, scene.rec
    first_failed, survivor = rec.failed, client._active_conns()[0]
    scene.fail(survivor)                     # no path left, one episode only
    assert rec.state is DIALLING and rec.failed is first_failed
    attempt = rec.attempt_conn
    scene.world.run(until=scene.world.sim.now + 0.5)   # the JOIN lands ...
    assert attempt.state == "ACTIVE"
    # ... and the redial that follows picks the queued path up.
    assert rec.failed is survivor
    assert rec.state is IDLE and len(client._active_conns()) == 2
    failovers = client.events.events_named(Event.FAILOVER)
    assert [kw["from_conn"] for kw in failovers] == [0, 0, 1]


def test_abandoning_restates_the_level_and_is_terminal_only_without_a_path(
    make_scene, monkeypatch
):
    scene = make_scene(BACKOFF)          # one survivor carries the traffic
    _budget_exhausted(scene)
    assert scene.client.events.events_named(Event.SESSION_DEGRADED)[-1] == dict(
        level="single_path", reason="retries_exhausted", terminal=False
    )
    monkeypatch.undo()  # the next scene gets the shipped retry budget back
    scene = make_scene(BACKOFF)
    scene.fail(scene.client._active_conns()[0])
    _purse_empty(scene)
    assert scene.client.events.events_named(Event.SESSION_DEGRADED)[-1] == dict(
        level="no_path", reason="cookies_exhausted", terminal=True
    )
    reasons = [
        kw["reason"]
        for kw in scene.client.events.events_named(Event.SESSION_DEGRADED)
    ]
    assert reasons.count("cookies_exhausted") == 1
    assert reasons.count("retries_exhausted") == 0


# -- crash() with a reconnect in flight --------------------------------------


def test_crash_in_backoff_disarms_the_reconnect_and_ends_its_timeline(make_scene):
    scene = make_scene(BACKOFF)
    client, timer = scene.client, scene.rec._timer
    before = list(client.events.timeline)
    client.crash()
    assert timer.cancelled and scene.rec.state is IDLE
    scene.world.run(until=scene.world.sim.now + 30.0)
    # No process is left to observe anything: the episode's record ends
    # where the crash cut it, at the failed first attempt's CONN_FAILED.
    assert client.events.timeline == before
    assert len(client.events.events_named(Event.CONN_RETRY)) == scene.retries == 1
    _t, event, kwargs = before[-1]
    assert event == Event.CONN_FAILED
    assert kwargs["conn_id"] == scene.former_attempt.conn_id


# -- behaviour is where it was -----------------------------------------------

PAYLOAD = bytes(range(256)) * 12000  # ~3 MB, as in tests/faults/test_retry_recovery.py


def _lost_attempt():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(recovery, "JOIN_TIMEOUT", 2.0)
        world = establish_paths(fault_world(paths=1, rate_bps=5e6))
        plan = FaultPlan(name="long-outage").flap(2.5, 9.0, path=0)
        run_scenario(world, plan, PAYLOAD, until=60.0, slack=4.0)
    return world


def _lost_join():
    world = establish_paths(fault_world(paths=1, rate_bps=5e6))
    link = world.topo.links[0]
    cut_again = []

    def on_established(conn_id, **_kw):
        if conn_id >= 1 and not cut_again:
            cut_again.append(world.sim.now)
            link.set_down()
            world.sim.schedule(8.0, link.set_up)

    world.client.on(Event.CONN_ESTABLISHED, on_established)
    plan = FaultPlan(name="first-outage").flap(2.5, 5.2, path=0)
    run_scenario(world, plan, PAYLOAD, until=90.0, slack=8.0)
    return world


def _single_path_redial():
    world = establish_paths(fault_world(paths=2, seed=17))
    plan = FaultPlan(name="kill-primary").flap(2.5, 6.0, path=0)
    run_scenario(world, plan, PAYLOAD, until=60.0, slack=4.0)
    return world


WORLDS = {
    "lost_attempt": _lost_attempt,          # test_reconnect_retries_after_lost_attempt
    "lost_join": _lost_join,                # test_lost_reconnect_join_recovers_via_retry
    "single_path_redial": _single_path_redial,  # test_degraded_single_path_recovers_...
}


@pytest.fixture(scope="module")
def client_of():
    """``name -> that world's client after its run``, each world run
    once per module (session rng and packet ids are process-global
    counters: rewound so the run is the captured one)."""
    clients = {}

    def get(name):
        if name not in clients:
            reset_process_globals()
            clients[name] = WORLDS[name]().client
        return clients[name]

    yield get
    clients.clear()


# Captured at 7e4d777 by running the three worlds above after
# ``reset_process_globals()``: ``client.events.timeline``, and the
# session's own tracer records of the time (spans, backoff points,
# without the failed attempts' spans; ``component`` is "session.client"
# throughout), which ``_derived_records`` now rebuilds from the timeline.
PARENT = {
    "lost_attempt": dict(
        timeline=[
            (0.020192, 'conn_established', {'conn_id': 0}),
            (0.041942400000000005, 'address_advertised', {'v4': ['10.1.0.2'], 'v6': []}),
            (0.041942400000000005, 'handshake_done', {'conn_id': 0}),
            (0.06240480000000001, 'ticket', {}),
            (0.0626912, 'ticket', {}),
            (2.0, 'stream_attached', {'conn_id': 0, 'stream_id': 1}),
            (8.697731200000042, 'conn_failed', {'conn_id': 0, 'reason': 'user timeout'}),
            (8.697731200000042, 'session_degraded', {'level': 'no_path', 'reason': 'user timeout', 'terminal': False}),
            (8.697731200000042, 'conn_retry', {'attempt': 1, 'dest': '10.1.0.2', 'max_retries': 4}),
            (10.697731200000042, 'conn_failed', {'conn_id': 1, 'reason': 'reconnect JOIN timed out'}),
            (10.961403852047928, 'conn_retry', {'attempt': 2, 'dest': '10.1.0.2', 'max_retries': 4}),
            (11.981595852047926, 'conn_established', {'conn_id': 2}),
            (12.002055052047927, 'session_recovered', {'downtime': 3.304323852047885, 'level': None}),
            (12.002055052047927, 'join', {'conn_id': 2}),
            (12.002055052047927, 'failover', {'attempts': 2, 'from_conn': 0, 'to_conn': 2}),
        ],
        spans_and_points=[
            {'conn_id': 0, 'dur': 0.041942400000000005, 'early_data': False, 'event': 'handshake', 't': 0.0, 't_end': 0.041942400000000005},
            {'attempt': 1, 'delay': 0.2636726520478854, 'event': 'reconnect_backoff', 'reason': 'reconnect JOIN timed out', 't': 10.697731200000042},
            {'conn_id': 2, 'dur': 1.0406511999999992, 'event': 'join', 't': 10.961403852047928, 't_end': 12.002055052047927},
            {'attempts': 2, 'dur': 3.304323852047885, 'event': 'reconnect', 'from_conn': 0, 'ok': True, 't': 8.697731200000042, 't_end': 12.002055052047927},
        ],
    ),
    "lost_join": dict(
        timeline=[
            (0.020192, 'conn_established', {'conn_id': 0}),
            (0.041942400000000005, 'address_advertised', {'v4': ['10.1.0.2'], 'v6': []}),
            (0.041942400000000005, 'handshake_done', {'conn_id': 0}),
            (0.06240480000000001, 'ticket', {}),
            (0.0626912, 'ticket', {}),
            (2.0, 'stream_attached', {'conn_id': 0, 'stream_id': 1}),
            (8.697731200000042, 'conn_failed', {'conn_id': 0, 'reason': 'user timeout'}),
            (8.697731200000042, 'session_degraded', {'level': 'no_path', 'reason': 'user timeout', 'terminal': False}),
            (8.697731200000042, 'conn_retry', {'attempt': 1, 'dest': '10.1.0.2', 'max_retries': 4}),
            (8.71792320000004, 'conn_established', {'conn_id': 1}),
            (14.91792320000004, 'conn_failed', {'conn_id': 1, 'reason': 'user timeout'}),
            (15.192825001993503, 'conn_retry', {'attempt': 2, 'dest': '10.1.0.2', 'max_retries': 4}),
            (18.213017001993506, 'conn_established', {'conn_id': 2}),
            (18.233476201993508, 'session_recovered', {'downtime': 9.535745001993465, 'level': None}),
            (18.233476201993508, 'join', {'conn_id': 2}),
            (18.233476201993508, 'failover', {'attempts': 2, 'from_conn': 0, 'to_conn': 2}),
        ],
        spans_and_points=[
            {'conn_id': 0, 'dur': 0.041942400000000005, 'early_data': False, 'event': 'handshake', 't': 0.0, 't_end': 0.041942400000000005},
            {'attempt': 1, 'delay': 0.27490180199346426, 'event': 'reconnect_backoff', 'reason': 'user timeout', 't': 14.91792320000004},
            {'conn_id': 2, 'dur': 3.0406512000000046, 'event': 'join', 't': 15.192825001993503, 't_end': 18.233476201993508},
            {'attempts': 2, 'dur': 9.535745001993465, 'event': 'reconnect', 'from_conn': 0, 'ok': True, 't': 8.697731200000042, 't_end': 18.233476201993508},
        ],
    ),
    "single_path_redial": dict(
        timeline=[
            (0.020192, 'conn_established', {'conn_id': 0}),
            (0.0419568, 'address_advertised', {'v4': ['10.1.0.2', '10.2.0.2'], 'v6': []}),
            (0.0419568, 'handshake_done', {'conn_id': 0}),
            (0.06241920000000001, 'ticket', {}),
            (0.0627056, 'ticket', {}),
            (1.030192, 'conn_established', {'conn_id': 1}),
            (1.0606511999999997, 'join', {'conn_id': 1}),
            (2.0, 'stream_attached', {'conn_id': 0, 'stream_id': 1}),
            (8.697731200000042, 'conn_failed', {'conn_id': 0, 'reason': 'user timeout'}),
            (8.697731200000042, 'session_degraded', {'level': 'single_path', 'reason': 'user timeout', 'terminal': False}),
            (8.697731200000042, 'failover', {'from_conn': 0, 'to_conn': 1}),
            (8.697731200000042, 'conn_retry', {'attempt': 1, 'dest': '10.1.0.2', 'max_retries': 4}),
            (8.71792320000004, 'conn_established', {'conn_id': 2}),
            (8.738382400000042, 'session_recovered', {'downtime': 0.04065119999999922, 'level': None}),
            (8.738382400000042, 'join', {'conn_id': 2}),
            (8.738382400000042, 'failover', {'attempts': 1, 'from_conn': 0, 'to_conn': 2}),
        ],
        spans_and_points=[
            {'conn_id': 0, 'dur': 0.0419568, 'early_data': False, 'event': 'handshake', 't': 0.0, 't_end': 0.0419568},
            {'conn_id': 1, 'dur': 0.06065119999999968, 'event': 'join', 't': 1.0, 't_end': 1.0606511999999997},
            {'conn_id': 2, 'dur': 0.04065119999999922, 'event': 'join', 't': 8.697731200000042, 't_end': 8.738382400000042},
            {'attempts': 1, 'dur': 0.04065119999999922, 'event': 'reconnect', 'from_conn': 0, 'ok': True, 't': 8.697731200000042, 't_end': 8.738382400000042},
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(WORLDS))
def test_events_and_trace_are_the_parents(name, client_of):
    client, expected = client_of(name), PARENT[name]
    assert [tuple(entry) for entry in client.events.timeline] == expected["timeline"]
    # The tracer holds TCP snapshots only, each taken at a timeline
    # transition of a snapshot kind and labelled with it.
    samples = client.obs.tracer.timeline()
    transitions = {
        (t, event) for t, event, _kwargs in expected["timeline"]
        if event in TcplsSession._SNAPSHOT_EVENTS
    }
    assert samples and all(record["component"] == "tcp" for record in samples)
    assert all((record["t"], record["event"]) in transitions for record in samples)


def _derived_records(timeline):
    """The parent's ``reconnect_backoff``, redial ``join`` and
    ``reconnect`` records, rebuilt from the event timeline alone: a
    backoff runs from the failed attempt's CONN_FAILED to the next
    CONN_RETRY, a redial JOIN from its CONN_RETRY to its JOIN, and an
    episode from the CONN_FAILED of the path it redials to the FAILOVER
    that carries ``attempts``."""
    records, failed_at, last_failure, retry_at = [], {}, None, None
    for t, event, kwargs in timeline:
        if event == Event.CONN_FAILED:
            failed_at[kwargs["conn_id"]] = t
            last_failure = (t, kwargs["reason"])
        elif event == Event.CONN_RETRY:
            if kwargs["attempt"] > 1:
                start, reason = last_failure
                records.append(dict(
                    attempt=kwargs["attempt"] - 1, delay=t - start,
                    event="reconnect_backoff", reason=reason, t=start,
                ))
            retry_at = t
        elif event == Event.FAILOVER and "attempts" in kwargs:
            start = failed_at[kwargs["from_conn"]]
            records.append(dict(
                conn_id=kwargs["to_conn"], dur=t - retry_at, event="join",
                t=retry_at, t_end=t,
            ))
            records.append(dict(
                attempts=kwargs["attempts"], dur=t - start, event="reconnect",
                from_conn=kwargs["from_conn"], ok=True, t=start, t_end=t,
            ))
    return records


@pytest.mark.parametrize("name", sorted(WORLDS))
def test_the_deleted_records_derive_from_the_timeline(name, client_of):
    timeline = client_of(name).events.timeline
    parent = PARENT[name]["spans_and_points"]
    instant = {(event, kwargs.get("conn_id")): t for t, event, kwargs in timeline}
    derived = _derived_records(timeline)
    redialled = {record["conn_id"] for record in derived if record["event"] == "join"}
    # Two starts have no other store and are given up: the instant the
    # application called ``handshake()`` / ``handshake(conn_id)``.  The
    # ends of those records are timeline instants.
    (handshake,) = [record for record in parent if record["event"] == "handshake"]
    assert handshake["t_end"] == instant[Event.HANDSHAKE_DONE, handshake["conn_id"]]
    application_joins = [
        record for record in parent
        if record["event"] == "join" and record["conn_id"] not in redialled
    ]
    for record in application_joins:
        assert record["t_end"] == instant[Event.JOIN, record["conn_id"]]
    expected = [
        record for record in parent
        if record is not handshake and record not in application_joins
    ]
    assert [record["event"] for record in derived] == [
        record["event"] for record in expected
    ]
    for got, want in zip(derived, expected):
        assert set(got) == set(want)
        for key, value in want.items():
            if key == "delay":
                assert got[key] == pytest.approx(value, abs=1e-9)
            else:
                assert got[key] == value, key


def test_a_dead_connection_is_sampled_once_at_its_own_failure(client_of):
    client = client_of("single_path_redial")
    failed_at = client.events.events_named(Event.CONN_FAILED)
    assert failed_at == [{"conn_id": 0, "reason": "user timeout"}]
    samples = [
        record for record in client.obs.tracer.timeline() if record["component"] == "tcp"
    ]
    (death,) = [
        t for t, event, kwargs in client.events.timeline if event == Event.CONN_FAILED
    ]
    after_death = [
        (record["t"], record["event"]) for record in samples
        if record["conn_id"] == 0 and record["t"] >= death
    ]
    assert after_death == [(death, Event.CONN_FAILED)]
    assert len(samples) == 13


# -- failed attempts reach the timeline --------------------------------------


@pytest.mark.parametrize(
    "name, reason", [("lost_attempt", "reconnect JOIN timed out"),
                     ("lost_join", "user timeout")],
)
def test_failed_join_attempt_is_on_the_timeline(name, reason, client_of):
    client = client_of(name)
    attempts = [kw["attempt"] for kw in client.events.events_named(Event.CONN_RETRY)]
    assert attempts == [1, 2]
    retries = [t for t, event, _kw in client.events.timeline if event == Event.CONN_RETRY]
    # The first attempt's JOIN (conn 1) ends in its CONN_FAILED, between
    # the two dials; the second one (conn 2) ends in its JOIN.
    (failed_at,) = [
        t for t, event, kw in client.events.timeline
        if event == Event.CONN_FAILED and kw == {"conn_id": 1, "reason": reason}
    ]
    assert retries[0] < failed_at < retries[1]
    assert client.events.events_named(Event.JOIN) == [{"conn_id": 2}]


def test_handshake_cut_short_by_tcp_failure_is_on_the_timeline():
    world = fault_world(paths=1)
    client, topo = world.client, world.topo
    # TCP comes up, then the path dies under the ClientHello.
    client.on(Event.CONN_ESTABLISHED, lambda **_kw: topo.links[0].set_down())
    client.connect(topo.server_addrs[0], src=topo.client_addrs[0])
    client.handshake()
    world.run(until=30.0)
    assert client.connections[0].state == "FAILED" and not client.handshake_complete
    events = [(event, kw) for _t, event, kw in client.events.timeline]
    assert events[0] == (Event.CONN_ESTABLISHED, {"conn_id": 0})
    (event, kw) = events[-1]
    assert event == Event.CONN_FAILED and kw["conn_id"] == 0 and kw["reason"]
    assert not client.events.events_named(Event.HANDSHAKE_DONE)


# -- path_score, frozen ------------------------------------------------------

#: (srtt, segments_sent, retransmissions, fast_retransmits, timeouts, score);
#: scores computed at 7e4d777, where the formula still carried the health
#: tick's ``loss_ewma`` (always 0.0) and ``_seen_loss_events`` (always 0).
SCORES = [
    (None, 0, 0, 0, 0, 1.0),
    (0.0, 10, 0, 0, 0, 0.0),
    (0.020192, 1000, 0, 0, 0, 0.020192),
    (0.0406512, 2417, 3, 1, 0, 0.12249180372362431),
    (0.1, 7, 1, 0, 0, 0.2642857142857143),
    (0.1, 3, 1, 1, 1, 1.05),
    (0.06065119999999968, 12154, 61, 17, 2, 2.489892944281705),
    (0.3333333333333333, 999983, 4099, 211, 13, 720.8448615293125),
    (None, 5, 2, 0, 3, 11.5),
    (1e-09, 1, 0, 0, 1, 9.5e-09),
    (2.5, 0, 0, 0, 4, 7.5),
    (0.0123456789, 333, 33, 3, 0, 0.2452452430135135),
]


@pytest.mark.parametrize("srtt, sent, rtx, fast, timeouts, score", SCORES)
def test_path_health_score_is_bit_identical(srtt, sent, rtx, fast, timeouts, score):
    conn = SimpleNamespace(tcp=SimpleNamespace(
        rto=SimpleNamespace(srtt=srtt),
        stats={"segments_sent": sent, "retransmissions": rtx,
               "fast_retransmits": fast, "timeouts": timeouts},
    ))
    assert path_score(conn) == score  # ==, not approx
