"""Assemble and write ``BENCH_*.json`` metrics files.

``collect_metrics`` gathers, from whatever the caller has on hand (the
simulator, TCPLS sessions, links, free-form extras), one JSON-ready
document with a stable shape:

    {
      "title":            str,
      "sim_time":         float,
      "events_processed": int,
      "sessions":         [per-session counters, stats, snapshots, timeline],
      "links":            [per-link delivery/drop counters],
      "extra":            caller-provided figures (goodput, series, ...),
    }

The benchmark conftest calls this from ``report()`` so every figure and
ablation benchmark emits its machine-readable twin next to the printed
table.  The document is a function of the simulated run: host time is
measured from outside the package, by ``bench/`` (see ``bench/README.md``).
"""

from __future__ import annotations

import json
import os
from typing import Iterable, Optional

from repro.obs.tcpinfo import sample_tcp

SCHEMA_VERSION = 1


def _session_metrics(session) -> dict:
    """Everything one ``TcplsSession`` knows about itself."""
    connections = {}
    for conn_id, conn in session.connections.items():
        connections[str(conn_id)] = {
            "state": conn.state,
            "primary": conn.is_primary,
            "bytes_delivered": conn.bytes_delivered,
            "records_received": conn.records_received,
            "tcp": sample_tcp(conn.tcp).to_dict(),
        }
    out = {
        "role": "server" if session.is_server else "client",
        "stats": dict(session.stats),
        "connections": connections,
        "streams": sorted(session.streams),
    }
    obs = getattr(session, "obs", None)
    if obs is not None:
        out.update(obs.snapshot())
    return out


def _link_metrics(link) -> dict:
    return {"name": link.name, **link.stats}


def collect_metrics(
    title: str = "",
    sim=None,
    sessions: Iterable = (),
    links: Iterable = (),
    extra: Optional[dict] = None,
) -> dict:
    metrics = {
        "schema": SCHEMA_VERSION,
        "title": title,
        "sessions": [_session_metrics(session) for session in sessions],
        "links": [_link_metrics(link) for link in links],
    }
    if sim is not None:
        metrics["sim_time"] = sim.now
        metrics["events_processed"] = sim.events_processed
    if extra:
        metrics["extra"] = extra
    return metrics


def write_metrics_json(path: str, metrics: dict) -> str:
    """Write one metrics document; returns the path written."""
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(metrics, handle, indent=2, sort_keys=False, default=str)
        handle.write("\n")
    return path
