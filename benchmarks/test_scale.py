"""S1: server-farm scale — thousands of concurrent TCPLS sessions.

One process terminates ``SESSIONS`` concurrent TCPLS sessions (the
paper's server-side-library deployment story, section 4) behind a
scored session pool and a multi-listener farm, with arrival/departure
churn from :mod:`repro.scale.loadgen`:

- wave A ramps 0 → N concurrent sessions, each running one
  request/response and holding through a plateau (peak concurrency is
  asserted, not assumed);
- wave B reuses the idle pool, then everything drains to zero.

Reported (and exported to ``BENCH_scale.json``):

- **sessions/sec** — completed handshakes per wall-clock second;
- **TTFB p50/p99** — per-request time-to-first-response-byte in
  simulated seconds (includes dial+handshake for fresh sessions);
- **events/sec** — simulator events per wall second over the run;
- **peak RSS** — process high-water memory after the run.

Teardown asserts the engine's live-event count is exactly zero: under
~10^5 scheduled/cancelled timers, any cancel-accounting drift (the PR's
bugfix target) shows up here.

Set ``REPRO_SCALE_QUICK=1`` (the CI farm-smoke job does) to shrink the
run to ~200 sessions.
"""

from __future__ import annotations

import os
import resource
import time

from repro import fastpath
from repro.obs import collect_metrics, write_metrics_json
from repro.obs.hub import Observability
from repro.scale.loadgen import ScaleConfig, run_scale
from repro.scale.pool import PoolConfig

from conftest import METRICS_DIR, report

QUICK = os.environ.get("REPRO_SCALE_QUICK", "") not in ("", "0")
SESSIONS = 200 if QUICK else 1000

_SCALE_JSON = os.path.join(METRICS_DIR, "BENCH_scale.json")


def _percentile(values, fraction):
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[index]


def _peak_rss_bytes() -> int:
    # ru_maxrss is KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def test_scale_farm(once):
    config = ScaleConfig(
        sessions=SESSIONS,
        reuse_fraction=0.25,
        listeners=2,
        client_hosts=4,
        arrival_span=2.0,
        hold_time=0.5,
        seed=1,
        pool=PoolConfig(max_streams_per_session=1),
    )

    state = {}

    def run():
        obs = Observability(None, enabled=True)
        started = time.perf_counter()
        result = run_scale(config, observability=obs)
        state["wall"] = time.perf_counter() - started
        state["result"] = result
        state["obs"] = obs
        return result

    result = once(run)
    wall = state["wall"]

    # -- acceptance --------------------------------------------------------
    expected = config.sessions + int(config.sessions * config.reuse_fraction)
    assert result.requests_started == expected
    assert result.requests_completed == expected
    assert result.requests_failed == 0
    # The whole wave really was concurrently established.
    assert result.peak_concurrent >= config.sessions
    # Every session retired, every server-side record reaped.
    assert result.pool_stats["open"] == 0
    assert result.server_sessions_reaped >= config.sessions
    # Cancelled-event accounting: zero live timers after teardown.
    assert result.live_events == 0

    ttfb_p50 = _percentile(result.ttfb, 0.50)
    ttfb_p99 = _percentile(result.ttfb, 0.99)
    sessions_per_sec = result.pool_stats["dials"] / wall if wall else 0.0
    events_per_sec = result.events_processed / wall if wall else 0.0
    peak_rss = _peak_rss_bytes()

    lines = [
        f"mode:               {'quick' if QUICK else 'full'}",
        f"concurrent sessions {result.peak_concurrent} (target {config.sessions})",
        f"requests            {result.requests_completed}/{result.requests_started}"
        f" (reused {result.pool_stats['reused']})",
        f"sessions/sec (wall) {sessions_per_sec:,.1f}",
        f"TTFB p50/p99 (sim)  {ttfb_p50 * 1000:.1f} ms / {ttfb_p99 * 1000:.1f} ms",
        f"events/sec (wall)   {events_per_sec:,.0f}"
        f" ({result.events_processed:,} events in {wall:.2f}s)",
        f"peak RSS            {peak_rss / (1 << 20):,.1f} MiB",
        f"sim time            {result.sim_time:.2f}s",
        f"live events at end  {result.live_events}",
    ]
    report(
        "S1: server-farm scale (pooled sessions under churn)",
        lines,
        extra={"pool": result.pool_stats},
    )

    payload = collect_metrics(
        title="S1 server-farm scale",
        extra={
            "quick_mode": QUICK,
            "fastpath_flags": fastpath.all_enabled(),
            "concurrent_sessions": result.peak_concurrent,
            "target_sessions": config.sessions,
            "requests_started": result.requests_started,
            "requests_completed": result.requests_completed,
            "requests_failed": result.requests_failed,
            "sessions_per_sec_wall": sessions_per_sec,
            "ttfb_p50_s": ttfb_p50,
            "ttfb_p99_s": ttfb_p99,
            "events_processed": result.events_processed,
            "events_per_sec_wall": events_per_sec,
            "wall_seconds": wall,
            "sim_seconds": result.sim_time,
            "peak_rss_bytes": peak_rss,
            "live_events_after_teardown": result.live_events,
            "server_sessions_reaped": result.server_sessions_reaped,
            "pool": result.pool_stats,
        },
    )
    write_metrics_json(_SCALE_JSON, payload)
    print(f"[metrics] {_SCALE_JSON}")
