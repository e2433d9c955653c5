"""One session's metrics document, for ``TcplsSession.metrics()``.

The document is a function of the simulated run: host time is measured
from outside the package, by ``bench/`` (see ``bench/README.md``).
"""

from __future__ import annotations

from repro.obs.tcpinfo import sample_tcp


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
