"""``TCP_INFO``-style per-connection snapshots.

"Beyond socket options" argues the kernel's ``TCP_INFO`` is the wrong
granularity for modern transports; TCPLS sits above its own TCP
implementation, so we can expose everything: congestion state, RTT
estimator internals, loss-recovery counters, and delivered-byte rates.

Snapshots are **pull-based** by design: sampling never schedules
simulator events (a periodic sampling timer would change
``events_processed`` and violate the zero-perturbation guarantee).
``TcplsSession`` samples each connection whose TCP is not CLOSED (and
the one the event names) on its own state transitions — handshake
done, JOIN, failover, migration, connection failure — as ``tcp`` tracer
points labelled with the transition, and ``TcplsConnection.describe``
samples once more at collection time.
"""

from __future__ import annotations


def sample_tcp(tcp) -> dict:
    """Snapshot one ``repro.tcp.connection.TcpConnection`` as a plain,
    JSON-ready dict of scalars."""
    stats = tcp.stats
    return {
        "state": tcp.state,
        "cwnd": tcp.cc.window(),
        "ssthresh": tcp.cc.ssthresh,
        "srtt": tcp.rto.srtt if tcp.rto.srtt is not None else 0.0,
        "rttvar": tcp.rto.rttvar,
        "rto": tcp.rto.rto,
        "mss": tcp.effective_mss(),
        "snd_wnd": tcp.snd_wnd,
        "flight": tcp.bytes_in_flight(),
        "send_queue": tcp.send_queue_length(),
        "retransmissions": stats["retransmissions"],
        "fast_retransmits": stats["fast_retransmits"],
        "timeouts": stats["timeouts"],
        "sacked_segments": tcp.sacked_segments,
        "dup_acks_received": stats["dup_acks_received"],
        "delivered_bytes": tcp.delivered_bytes,
        "delivery_rate_bps": tcp.delivery_rate(),
        "bytes_sent": stats["bytes_sent"],
        "bytes_received": stats["bytes_received"],
        "segments_sent": stats["segments_sent"],
        "segments_received": stats["segments_received"],
        "congestion": tcp.cc.name,
    }
