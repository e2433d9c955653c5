"""Reconnect storm through a crash-restart, checked and determinized.

The acceptance scenario for the disaster-recovery PR: 200 established
sessions ride through a ``server_restart`` fault with ticket-key
rotation.  Every client must re-establish within the recovery-time
objective, exactly-once delivery must hold across the restart boundary
(the invariant checker sees every request id applied exactly once), and
a double run must be digest-identical under the determinism sanitizer.
"""

from repro.analysis.sanitizers import (
    DeterminismProbe,
    check_determinism,
    reset_process_globals,
)
from repro.scale.loadgen import REQUEST_TIMEOUT
from repro.scale.recovery import RecoveryConfig, run_recovery

#: The acceptance-criteria storm size.
STORM_SESSIONS = 200


def _config(sessions=STORM_SESSIONS, **overrides):
    kwargs = dict(rotate_keys=True, zero_rtt_probes=4, seed=13)
    kwargs.update(overrides)
    return RecoveryConfig(sessions=sessions, **kwargs)


def _assert_storm_contract(config, result):
    report = result.invariants
    assert report.ok, "\n".join(report.violations[:20])
    assert result.recovered == config.sessions
    assert len(result.ttr) == result.recovered  # one time-to-recover each
    assert result.requests_failed == 0
    assert max(result.ttr) <= result.rto_bound
    # The storm actually stormed: every client redialled through the
    # outage, and the backoff machinery (not luck) carried them through.
    assert result.pool_stats["redials"] > 0
    assert result.pool_stats["dials"] > config.sessions
    assert result.endpoint["crashes"] == 1
    assert result.endpoint["restarts"] == 1
    assert result.endpoint["rotations"] == 1
    # Key rotation: 0-RTT dies gracefully, never fatally.
    assert result.early_before["accepted"] == result.early_before["total"] > 0
    assert result.early_after["accepted"] == 0
    assert result.early_after["declined"] == result.early_after["total"] > 0
    # Clean teardown: no leaked sessions or timers.
    assert result.pool_stats["open"] == 0
    assert result.live_events == 0


def test_storm_recovers_within_rto_exactly_once_and_deterministically():
    config = _config()

    def scenario(probe: DeterminismProbe):
        def on_world(world):
            probe.watch(world.sim)
            probe.tap(world.links[0], world.links[0].endpoint(0))
            probe.tap(world.links[0], world.links[0].endpoint(1))

        result = run_recovery(_config(), on_world=on_world)
        _assert_storm_contract(config, result)

    report = check_determinism(scenario, runs=2)
    assert report.ok, report.format()


def test_small_storm_without_rotation_resumes_tickets():
    config = _config(sessions=12, rotate_keys=False)
    result = run_recovery(config)
    assert result.invariants.ok, "\n".join(result.invariants.violations[:10])
    assert result.recovered == config.sessions
    # Same keys across the restart: cached tickets still resume, so the
    # post-restart 0-RTT probes are accepted again.
    assert result.early_after["accepted"] == result.early_after["total"] > 0
    assert result.endpoint["rotations"] == 0


#: (pcap_hash, packets, clock, events) of the 12-session rotated storm
#: with every link tapped, frozen at commit c59becb (three private farm
#: constructors) so the shared-farm refactor cannot move the wire.
FROZEN_STORM = (
    "2ceb5e1477d801a3aa02d316e7cf91ad2f6e5fc88742e3d12c108caede22ecb1",
    1132, 9.596015119999997, 1331,
)


def test_storm_detection_is_rst_fast_not_timeout():
    config = _config(sessions=12)
    reset_process_globals()
    probe = DeterminismProbe()

    def on_world(world):
        probe.watch(world.sim)
        for link in world.links:
            probe.tap(link, link.endpoint(0))
            probe.tap(link, link.endpoint(1))

    result = run_recovery(config, on_world=on_world)
    assert result.invariants.ok
    digest = probe.digest()
    assert (
        digest.pcap_hash, digest.packets, digest.clock, digest.events
    ) == FROZEN_STORM
    # Worst observed recovery stays well under the give-up deadline S1
    # arms per request (R3 arms no timer at all): the clients learned of
    # the crash from RSTs, not from expiring waits.
    assert max(result.ttr) < REQUEST_TIMEOUT / 2
