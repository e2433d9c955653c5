"""R3: crash-restart disaster recovery — the reconnect storm.

The server farm dies mid-load and comes back ``outage`` seconds later
with rotated ticket keys (:mod:`repro.scale.recovery`):

- ``SESSIONS`` clients each hold an established session through the
  crash, detect it via the RST their next request draws, and redial
  through the pool's jittered exponential backoff;
- the run is checked against the recovery-time objective
  (:func:`repro.faults.invariants.max_storm_recovery_time`) and the
  exactly-once-across-restart invariant — every request id applied
  exactly once by the server's restart-surviving application state;
- 0-RTT probes measure early-data acceptance before the crash (should
  be ~100%) and after the key rotation (must be 0%, every probe
  *declined into a full handshake* rather than failed).

Printed: the per-client time to recovery p50/p99 (seconds from the
crash instant to its recovered response, simulated) and the 0-RTT
acceptance before the crash and after the key rotation.
"""

from __future__ import annotations

from repro.scale.recovery import RecoveryConfig, run_recovery

SESSIONS = 200


def _percentile(values, fraction):
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[index]


def _rate(bucket):
    total = bucket.get("total", 0)
    return bucket.get("accepted", 0) / total if total else 0.0


def test_recovery_storm():
    config = RecoveryConfig(sessions=SESSIONS, rotate_keys=True, seed=1)
    result = run_recovery(config)

    # -- acceptance --------------------------------------------------------
    assert result.recovered == config.sessions
    assert result.requests_failed == 0
    result.invariants.assert_ok()
    # Key rotation across the restart: 0-RTT must die gracefully.
    assert _rate(result.early_before) == 1.0
    assert _rate(result.early_after) == 0.0
    assert result.early_after["declined"] == result.early_after["total"]
    # Every session retired, no timers leaked.
    assert result.pool_stats["open"] == 0
    assert result.live_events == 0

    ttr_p50 = _percentile(result.ttr, 0.50)
    ttr_p99 = _percentile(result.ttr, 0.99)
    lines = [
        "R3: crash-restart recovery (reconnect storm + key rotation)",
        f"clients recovered     {result.recovered}/{result.clients}"
        f" (outage {config.outage:.2f}s, keys rotated: {config.rotate_keys})",
        f"time-to-recovery      p50 {ttr_p50:.3f}s / p99 {ttr_p99:.3f}s"
        f" (RTO bound {result.rto_bound:.3f}s)",
        f"0-RTT acceptance      before {_rate(result.early_before):.0%}"
        f" / after rotation {_rate(result.early_after):.0%}"
        f" ({result.early_after['declined']} declined gracefully)",
        f"pool dials/redials    {result.pool_stats['dials']}"
        f" / {result.pool_stats['redials']}",
        f"sim time              {result.sim_time:.2f}s",
        f"live events at end    {result.live_events}",
    ]
    print(*lines, sep="\n")
