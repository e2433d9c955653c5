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

Reported (and exported to ``BENCH_recovery.json``):

- **reconnects/sec** — post-crash re-establishments per wall second;
- **time-to-recovery p50/p99** — per-client seconds from the crash
  instant to its recovered response (simulated);
- **0-RTT acceptance** — before the crash vs after the key rotation.

Set ``REPRO_RECOVERY_QUICK=1`` (the CI farm-smoke job does) to
shrink the storm to ~200 sessions.
"""

from __future__ import annotations

import os
import time

from repro.obs import collect_metrics, write_metrics_json
from repro.obs.hub import Observability
from repro.scale.recovery import RecoveryConfig, run_recovery

from conftest import METRICS_DIR, report

QUICK = os.environ.get("REPRO_RECOVERY_QUICK", "") not in ("", "0")
SESSIONS = 200 if QUICK else 500

_RECOVERY_JSON = os.path.join(METRICS_DIR, "BENCH_recovery.json")


def _percentile(values, fraction):
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[index]


def _rate(bucket):
    total = bucket.get("total", 0)
    return bucket.get("accepted", 0) / total if total else 0.0


def test_recovery_storm(once):
    config = RecoveryConfig(sessions=SESSIONS, rotate_keys=True, seed=1)

    state = {}

    def run():
        obs = Observability(None, enabled=True)
        started = time.perf_counter()
        result = run_recovery(config, observability=obs)
        state["wall"] = time.perf_counter() - started
        state["result"] = result
        return result

    result = once(run)
    wall = state["wall"]

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
    reconnects_per_sec = result.recovered / wall if wall else 0.0

    lines = [
        f"mode:                 {'quick' if QUICK else 'full'}",
        f"clients recovered     {result.recovered}/{result.clients}"
        f" (outage {config.outage:.2f}s, keys rotated: {config.rotate_keys})",
        f"reconnects/sec (wall) {reconnects_per_sec:,.1f}",
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
    report(
        "R3: crash-restart recovery (reconnect storm + key rotation)",
        lines,
        extra={"pool": result.pool_stats, "endpoint": result.endpoint},
    )

    payload = collect_metrics(
        title="R3 crash-restart recovery",
        extra={
            "quick_mode": QUICK,
            "clients": result.clients,
            "recovered": result.recovered,
            "requests_failed": result.requests_failed,
            "reconnects_per_sec_wall": reconnects_per_sec,
            "ttr_p50_s": ttr_p50,
            "ttr_p99_s": ttr_p99,
            "ttr_max_s": max(result.ttr) if result.ttr else 0.0,
            "rto_bound_s": result.rto_bound,
            "zero_rtt_before": result.early_before,
            "zero_rtt_after_rotation": result.early_after,
            "outage_s": config.outage,
            "rotate_keys": config.rotate_keys,
            "wall_seconds": wall,
            "sim_seconds": result.sim_time,
            "events_processed": result.events_processed,
            "live_events_after_teardown": result.live_events,
            "pool": result.pool_stats,
            "endpoint": result.endpoint,
        },
    )
    write_metrics_json(_RECOVERY_JSON, payload)
    print(f"[metrics] {_RECOVERY_JSON}")
