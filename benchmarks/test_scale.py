"""S1: server-farm scale — hundreds of concurrent TCPLS sessions.

One process terminates ``SESSIONS`` concurrent TCPLS sessions (the
paper's server-side-library deployment story, section 4) behind a
scored session pool and a multi-listener farm, with arrival/departure
churn from :mod:`repro.scale.loadgen`:

- wave A ramps 0 → N concurrent sessions, each running one
  request/response and holding through a plateau (peak concurrency is
  asserted, not assumed);
- wave B reuses the idle pool, then everything drains to zero.

Printed: the per-request time-to-first-response-byte p50/p99 in
simulated seconds (includes dial+handshake for fresh sessions).  Host
cost is ``python -m bench``'s job (see ``bench/README.md``).

Teardown asserts the engine's live-event count is exactly zero: under
~10^5 scheduled/cancelled timers, any cancel-accounting drift shows up
here.
"""

from __future__ import annotations

from repro.scale.loadgen import ScaleConfig, run_scale
from repro.scale.pool import PoolConfig

SESSIONS = 200


def _percentile(values, fraction):
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[index]


def test_scale_farm():
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
    result = run_scale(config)

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
    lines = [
        "S1: server-farm scale (pooled sessions under churn)",
        f"concurrent sessions {result.peak_concurrent} (target {config.sessions})",
        f"requests            {result.requests_completed}/{result.requests_started}"
        f" (reused {result.pool_stats['reused']})",
        f"TTFB p50/p99 (sim)  {ttfb_p50 * 1000:.1f} ms / {ttfb_p99 * 1000:.1f} ms",
        f"events              {result.events_processed:,}",
        f"sim time            {result.sim_time:.2f}s",
        f"live events at end  {result.live_events}",
    ]
    print(*lines, sep="\n")
