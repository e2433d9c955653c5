"""FL1: sharded fleet scale-out — throughput vs worker count.

One fixed scenario set (``CELLS`` independent TCPLS cells: bulk
transfers plus server-farm churn) runs at 1, 2, 4, and 8 workers.  For
every worker count the fleet reports aggregate **events/sec** and
**sessions/sec** over wall-clock time measured here, around
``run_fleet`` (the result carries no host time), the scaling-efficiency
curve relative to the single-process leg, and the merged determinism
digests.  Acceptance: every leg's merged event-stream digest equals the
single-process digest (the merge invariant, end to end).  The scaling
curve is reported, not asserted — it is a property of the host's cores.

Exported to ``BENCH_fleet.json``: the per-worker-count series and the
efficiency curve.

Set ``REPRO_FLEET_QUICK=1`` (the CI fleet-smoke job does) for a small
cell set at 1/2 workers.
"""

from __future__ import annotations

import os
import time

from repro import fastpath
from repro.fleet import make_cells, run_fleet
from repro.obs import collect_metrics, write_metrics_json

from conftest import METRICS_DIR, report

QUICK = os.environ.get("REPRO_FLEET_QUICK", "") not in ("", "0")
CELLS = 8 if QUICK else 32
WORKER_COUNTS = (1, 2) if QUICK else (1, 2, 4, 8)

_FLEET_JSON = os.path.join(METRICS_DIR, "BENCH_fleet.json")

_BULK_PARAMS = {"payload_bytes": 30_000, "until": 4.0}
_CHURN_PARAMS = {"sessions": 20, "client_hosts": 2}


def _cell_set():
    """3/4 bulk transfers, 1/4 churn farms — one fixed workload."""
    bulk = make_cells(
        (CELLS * 3) // 4, base_seed=421, kind="bulk", params=_BULK_PARAMS
    )
    churn = make_cells(
        CELLS - len(bulk), base_seed=422, kind="churn", params=_CHURN_PARAMS
    )
    for offset, cell in enumerate(churn):
        cell.index = len(bulk) + offset
    return bulk + churn


def test_fleet_scaling(once):
    cells = _cell_set()
    legs = {}
    wall = {}

    def run():
        for workers in WORKER_COUNTS:
            started = time.perf_counter()
            legs[workers] = run_fleet(cells, workers=workers)
            wall[workers] = time.perf_counter() - started
        return legs

    once(run)
    single = legs[1]

    # -- acceptance --------------------------------------------------------
    for workers, result in legs.items():
        assert result.event_digest == single.event_digest, (
            f"{workers}-worker merged event digest diverged"
        )
        assert result.pcap_digest == single.pcap_digest, (
            f"{workers}-worker merged pcap digest diverged"
        )
        assert result.total_events == single.total_events
        assert result.total_sessions == single.total_sessions

    cores = os.cpu_count() or 1
    # Every leg does the same work, so speedup is a ratio of wall times.
    speedups = {workers: wall[1] / wall[workers] for workers in WORKER_COUNTS}

    series = []
    for workers in WORKER_COUNTS:
        series.append(
            {
                "workers": workers,
                "events_per_sec": single.total_events / wall[workers],
                "sessions_per_sec": single.total_sessions / wall[workers],
                "wall_seconds": wall[workers],
                "speedup": speedups[workers],
                "efficiency": speedups[workers] / workers,
            }
        )

    lines = [
        f"mode:               {'quick' if QUICK else 'full'}"
        f" ({CELLS} cells, {cores} cores)",
        f"digest (all legs)   {single.event_digest[:16]}...  "
        f"pcap {single.pcap_digest[:16]}...",
        f"total events        {single.total_events:,}"
        f"  sessions {single.total_sessions}",
    ]
    for row in series:
        lines.append(
            f"workers={row['workers']:<2d} {row['events_per_sec']:>12,.0f} ev/s"
            f"  {row['sessions_per_sec']:>8,.1f} sess/s"
            f"  speedup {row['speedup']:.2f}x"
            f"  efficiency {row['efficiency']:.2f}"
        )
    report("FL1: sharded fleet scaling (merged-digest verified)", lines)

    payload = collect_metrics(
        title="FL1 sharded fleet scaling",
        extra={
            "quick_mode": QUICK,
            "cells": CELLS,
            "cores": cores,
            "fastpath_flags": fastpath.all_enabled(),
            "event_digest": single.event_digest,
            "pcap_digest": single.pcap_digest,
            "total_events": single.total_events,
            "total_sessions": single.total_sessions,
            "scaling": series,
            "fleet": legs[max(WORKER_COUNTS)].to_metrics(),
        },
    )
    write_metrics_json(_FLEET_JSON, payload)
    print(f"[metrics] {_FLEET_JSON}")
