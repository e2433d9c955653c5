"""Per-path health scoring for TCPLS sessions.

The paper's failover story (section 2.1) needs an answer to "which
surviving connection should carry the replayed frames and the re-pinned
streams?"  This module scores every path from cross-layer TCP signals —
smoothed RTT and loss events (retransmissions, fast retransmits, RTO
expiries) — so the failover target, the stream re-pin and the replay
target after a failure all prefer the healthiest path.  The multipath
schedulers do not read it: pinned mode follows the stream, aggregate
mode the free window.

Scores are *lower-is-better* simulated seconds: an idealised path scores
its smoothed RTT; loss inflates that multiplicatively.  Scoring reads
only locally-available TCP state, so it costs nothing on the wire.
"""

from __future__ import annotations

# A path with no RTT sample yet (e.g. freshly joined) is scored with
# this placeholder so established paths with real measurements win ties.
UNMEASURED_RTT = 1.0

# Weight of the loss ratio relative to RTT: a path losing 10% of its
# segments scores as if its RTT were ~1.8x higher.
LOSS_WEIGHT = 8.0

# Weight of each loss event on its own — these dominate so a path that
# just started timing out is fled quickly even if its ratio still looks
# good.
LOSS_EVENT_WEIGHT = 0.5


def path_score(conn) -> float:
    """Health score of one ``TcplsConnection``; lower is better."""
    tcp = conn.tcp
    # Explicit unmeasured sentinel: a measured srtt of exactly 0.0
    # (zero-delay simulated link) is a *good* path, not an unknown.
    srtt = tcp.rto.srtt
    if srtt is None:
        srtt = UNMEASURED_RTT
    stats = tcp.stats
    sent = stats["segments_sent"]
    events = stats["retransmissions"] + stats["fast_retransmits"] + stats["timeouts"]
    loss_ratio = events / sent if sent else 0.0
    return srtt * (1.0 + LOSS_WEIGHT * loss_ratio + LOSS_EVENT_WEIGHT * events)


def best_path(connections):
    """The healthiest of ``connections`` (the caller's usable set), or
    None.  Deterministic tie-break: equal scores fall back to the lowest
    ``conn_id``."""
    return min(
        connections,
        key=lambda conn: (path_score(conn), conn.conn_id),
        default=None,
    )
