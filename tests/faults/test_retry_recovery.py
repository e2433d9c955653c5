"""Reconnect retry loop, backoff bounds, and failure surfacing.

These are the regression tests for the seed code's single-shot failover:
if the one reconnection attempt (or its JOIN) was itself lost, the
session stalled forever with no event, the JOIN handler leaked, and
cookie exhaustion died as a silent ``return``.
"""

import pytest

from repro.core import cookies, recovery
from repro.core.events import Event
from repro.faults import (
    DeliveryRecorder,
    FaultPlan,
    ChaosEngine,
    max_recovery_time,
    recovery_spans,
)

from tests.faults.conftest import establish_paths, fault_world, run_scenario

PAYLOAD = bytes(range(256)) * 12000  # ~3 MB


def _single_path_world():
    return establish_paths(fault_world(paths=1, rate_bps=5e6))


def test_reconnect_retries_after_lost_attempt(monkeypatch):
    """The only path dies mid-transfer and stays dark long enough that
    the first reconnection attempt is lost too (its SYN/JOIN go into a
    dead link and time out).  The seed code stalls here forever; the
    retry loop must keep redialling until the link returns, then finish
    the transfer.
    """
    monkeypatch.setattr(recovery, "JOIN_TIMEOUT", 2.0)
    world = _single_path_world()
    retries = []
    world.client.on(Event.CONN_RETRY, lambda **kw: retries.append(kw))
    # Down at 2.5 for 9 s: the TCP user timeout (5 s) kills the active
    # connection at ~7.5, attempt 1 dials into a link that stays dark
    # until 11.5 and times out; only a *later* attempt can succeed.
    plan = FaultPlan(name="long-outage").flap(2.5, 9.0, path=0)
    report, _ = run_scenario(world, plan, PAYLOAD, until=60.0, slack=4.0)
    report.assert_ok()
    attempts = [kw["attempt"] for kw in retries if kw.get("attempt")]
    assert max(attempts) >= 2, (
        f"recovery succeeded without retrying (attempts={attempts}); "
        "the lost first attempt was not detected"
    )
    spans = recovery_spans(world.client)
    assert spans["recovered"], "no DEGRADED->RECOVERED episode recorded"
    # A recovered redial is the FAILOVER event that carries its
    # ``attempts``: one episode, every retry counted on it.
    (recovered,) = [kw for kw in world.client.events.events_named(Event.FAILOVER)
                    if "attempts" in kw]
    assert recovered["attempts"] == max(attempts) == len(retries)


def test_lost_reconnect_join_recovers_via_retry():
    """THE seed-code stall: the primary dies, the reconnect attempt's
    TCP establishes — and then the path dies again with the JOIN in
    flight.  The attempt's connection is killed by the user timeout
    while still in JOIN_SENT, which pre-PR code treated as
    "never active, nothing to do" and stalled forever with both
    connections FAILED.  The retry loop must detect the lost attempt,
    back off, redial, and finish the transfer.
    """
    world = _single_path_world()
    link = world.topo.links[0]
    retries = []
    world.client.on(Event.CONN_RETRY, lambda **kw: retries.append(kw))

    cut_again = {}

    def on_established(conn_id, **_kw):
        # First reconnect attempt came up: kill the path again before
        # its JOIN can complete.
        if conn_id >= 1 and not cut_again:
            cut_again["at"] = world.sim.now
            link.set_down()
            world.sim.schedule(8.0, link.set_up)

    world.client.on(Event.CONN_ESTABLISHED, on_established)

    plan = FaultPlan(name="first-outage").flap(2.5, 5.2, path=0)
    report, _ = run_scenario(world, plan, PAYLOAD, until=90.0, slack=8.0)
    assert cut_again, "the reconnect attempt never established"
    report.assert_ok()
    attempts = [kw["attempt"] for kw in retries if kw.get("attempt")]
    assert max(attempts) >= 2, (
        "the lost JOIN was never retried (pre-PR behaviour)"
    )


def test_join_handlers_do_not_leak_across_recoveries(monkeypatch):
    """Every reconnection registers a one-shot JOIN handler; after two
    full outage/recovery cycles the handler count must be back at the
    baseline (the seed code accumulated one per failover, and stale
    handlers re-fired old replays)."""
    monkeypatch.setattr(recovery, "JOIN_TIMEOUT", 2.0)
    world = _single_path_world()
    recorder = DeliveryRecorder(world.server_session)
    baseline = world.client.events.handler_count(Event.JOIN)

    link = world.topo.links[0]
    stream = world.client.stream_new()
    world.client.streams_attach()
    world.client.send(stream, PAYLOAD)
    engine = ChaosEngine(world.sim, world.topo.links)
    engine.apply(FaultPlan(name="outage-1").flap(2.5, 6.5, path=0))
    world.run(until=25.0)
    assert link.up  # first outage is over

    second = world.client.stream_new()
    world.client.streams_attach()
    world.client.send(second, PAYLOAD)
    engine.apply(FaultPlan(name="outage-2").flap(world.sim.now + 0.5, 6.5, path=0))
    world.run(until=60.0)

    recoveries = [
        entry for entry in world.client.events.timeline
        if entry[1] == Event.SESSION_RECOVERED
    ]
    assert len(recoveries) >= 2, "expected two recovery episodes"
    assert world.client.events.handler_count(Event.JOIN) == baseline, (
        "JOIN handlers leaked across reconnections"
    )
    assert recorder.bytes_for(stream) == PAYLOAD
    assert recorder.bytes_for(second) == PAYLOAD


def test_retry_budget_exhaustion_is_terminal_and_surfaced(monkeypatch):
    """A permanent outage must end in a terminal SESSION_DEGRADED with
    reason retries_exhausted after exactly the budgeted attempts — not a
    silent stall."""
    monkeypatch.setattr(recovery, "JOIN_TIMEOUT", 1.5)
    world = _single_path_world()
    retries, degraded = [], []
    world.client.on(Event.CONN_RETRY, lambda **kw: retries.append(kw))
    world.client.on(Event.SESSION_DEGRADED, lambda **kw: degraded.append(kw))
    plan = FaultPlan(name="permanent").flap(2.5, 500.0, path=0)
    report, _ = run_scenario(world, plan, PAYLOAD, until=60.0,
                             allow_terminal=True)
    terminal = [kw for kw in degraded if kw.get("terminal")]
    assert terminal and terminal[-1]["reason"] == "retries_exhausted"
    budget = recovery.RECONNECT_MAX_RETRIES
    assert [kw["attempt"] for kw in retries] == list(range(1, budget + 1))
    assert world.client.describe()["degraded_level"] == "no_path"
    # The timeline is the one store of the failover outcome: one
    # abandonment, ``budget`` retries, no recovery.
    timeline = world.client.events
    assert len(timeline.events_named(Event.CONN_RETRY)) == budget
    abandoned = [
        kw for kw in timeline.events_named(Event.SESSION_DEGRADED)
        if kw["reason"] in ("retries_exhausted", "cookies_exhausted")
    ]
    assert len(abandoned) == 1
    assert not [kw for kw in timeline.events_named(Event.FAILOVER)
                if "attempts" in kw]


def test_retry_attempts_respect_backoff_floor(monkeypatch):
    """Consecutive CONN_RETRY timestamps must be separated by at least
    the deterministic part of the exponential backoff schedule."""
    monkeypatch.setattr(recovery, "JOIN_TIMEOUT", 1.5)
    world = _single_path_world()
    stamped = []
    world.client.on(
        Event.CONN_RETRY,
        lambda **kw: stamped.append((world.sim.now, kw["attempt"])),
    )
    plan = FaultPlan(name="permanent").flap(2.5, 500.0, path=0)
    run_scenario(world, plan, PAYLOAD, until=60.0, allow_terminal=True)
    for (t_prev, n_prev), (t_next, n_next) in zip(stamped, stamped[1:]):
        assert n_next == n_prev + 1
        floor = min(
            recovery.RECONNECT_BACKOFF_BASE * 2 ** (n_prev - 1),
            recovery.RECONNECT_BACKOFF_MAX,
        )
        assert t_next - t_prev >= floor, (
            f"attempt {n_next} fired {t_next - t_prev:.3f}s after "
            f"attempt {n_prev}, below the {floor:.3f}s backoff floor"
        )


def test_cookie_exhaustion_is_surfaced_not_silent(monkeypatch):
    """With no JOIN cookies at all, the first reconnection attempt must
    surface a terminal cookies_exhausted degradation on the timeline
    (the seed code silently returned)."""
    monkeypatch.setattr(cookies, "COOKIE_BATCH", 0)
    monkeypatch.setattr(recovery, "JOIN_TIMEOUT", 2.0)
    world = _single_path_world()
    degraded = []
    world.client.on(Event.SESSION_DEGRADED, lambda **kw: degraded.append(kw))
    plan = FaultPlan(name="outage").flap(2.5, 9.0, path=0)
    report, _ = run_scenario(world, plan, PAYLOAD, until=60.0,
                             allow_terminal=True)
    terminal = [kw for kw in degraded if kw.get("terminal")]
    assert terminal and terminal[-1]["reason"] == "cookies_exhausted"
    exhausted = [
        kw for kw in world.client.events.events_named(Event.SESSION_DEGRADED)
        if kw["reason"] == "cookies_exhausted"
    ]
    assert len(exhausted) == 1
    assert not world.client.events.events_named(Event.CONN_RETRY)
    spans = recovery_spans(world.client)
    assert spans["terminal"], "terminal degradation missing from timeline"


def test_max_recovery_time_formula(monkeypatch):
    # The shipped schedule: backoffs 0.25, 0.5, 1.0, 2.0 with 10% jitter
    # headroom, plus 4 JOIN timeouts of 10 s, plus slack.
    expected = (0.25 + 0.5 + 1.0 + 2.0) * 1.1 + 4 * 10.0 + 0.5
    assert max_recovery_time() == pytest.approx(expected)
    assert max_recovery_time(attempts=1, slack=0.0) == pytest.approx(
        0.25 * 1.1 + 10.0
    )
    # The bound follows the module constants a test patches.
    monkeypatch.setattr(recovery, "RECONNECT_MAX_RETRIES", 3)
    monkeypatch.setattr(recovery, "JOIN_TIMEOUT", 2.0)
    assert max_recovery_time() == pytest.approx(
        (0.25 + 0.5 + 1.0) * 1.1 + 3 * 2.0 + 0.5
    )


def test_degraded_single_path_recovers_when_path_redialled():
    """On a two-path world, losing one path degrades to single_path;
    the background redial must restore redundancy and emit RECOVERED
    once the replacement JOIN lands."""
    world = establish_paths(fault_world(paths=2, seed=17))
    events = []
    world.client.on(Event.SESSION_DEGRADED, lambda **kw: events.append(("deg", kw)))
    world.client.on(Event.SESSION_RECOVERED, lambda **kw: events.append(("rec", kw)))
    plan = FaultPlan(name="kill-primary").flap(2.5, 6.0, path=0)
    report, _ = run_scenario(world, plan, PAYLOAD, until=60.0, slack=4.0)
    report.assert_ok()
    kinds = [kind for kind, _ in events]
    assert "deg" in kinds and "rec" in kinds
    first_deg = next(kw for kind, kw in events if kind == "deg")
    assert first_deg["level"] == "single_path"
    active = [c for c in world.client.connections.values() if c.state == "ACTIVE"]
    assert len(active) == 2, "redundancy was not restored"
