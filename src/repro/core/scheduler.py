"""Multipath schedulers (paper sections 2.4-2.5).

Two application-selectable behaviours, mutually exclusive by design
("HOL-blocking avoidance is incompatible with the aggregation of
bandwidth"):

- **aggregation**: one stream's data is striped over every active TCP
  connection to sum their bandwidths; the receiver reorders by stream
  offset (accepting cross-connection HOL blocking);
- **hol_avoidance**: each stream stays pinned to its own connection, so
  a loss on one connection never delays another stream.

The scheduler only picks *which connection gets the next chunk*; chunk
sizing is the record-sizing policy's job (section 4.6).
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.health import path_score


def _sendable(conn) -> bool:
    """The uniform usable-set predicate every scheduler filters on.

    A connection must be both established (``usable``) and have flow/
    congestion window room (``send_room``).  Every scheduler shares this
    definition: a zero-window connection is never a valid pick, because
    handing it a chunk silently stalls that chunk until the window
    reopens even when another path could have carried it.
    """
    return conn.usable() and conn.send_room() > 0


class Scheduler:
    """Base: pick a connection for the next chunk of a stream."""

    name = "base"

    def pick(self, stream, connections: List) -> Optional[object]:
        raise NotImplementedError


class PinnedScheduler(Scheduler):
    """HOL-avoidance mode: a stream only ever uses its own connection."""

    name = "pinned"

    def pick(self, stream, connections: List) -> Optional[object]:
        for conn in connections:
            if conn.conn_id == stream.conn_id and _sendable(conn):
                return conn
        return None


class RoundRobinScheduler(Scheduler):
    """Aggregation mode: cycle through usable connections.

    The rotation cursor is the *identity* of the last-picked connection,
    not an index into the usable list: indexing modulo a list whose
    membership changes (a JOIN adds a path, a failure removes one)
    silently double-serves or skips paths, skewing aggregation fairness.
    Resuming after the last-picked ``conn_id`` keeps every surviving
    path served exactly once per cycle across churn.
    """

    name = "round_robin"

    def __init__(self) -> None:
        self._last_conn_id: Optional[int] = None

    def pick(self, stream, connections: List) -> Optional[object]:
        usable = [conn for conn in connections if _sendable(conn)]
        if not usable:
            return None
        chosen = None
        if self._last_conn_id is not None:
            # Cyclic successor by conn_id (ids are assigned monotonically,
            # so this is the connection order): the smallest id strictly
            # greater than the last pick, wrapping to the smallest overall.
            after = [c for c in usable if c.conn_id > self._last_conn_id]
            if after:
                chosen = min(after, key=lambda c: c.conn_id)
        if chosen is None:
            chosen = min(usable, key=lambda c: c.conn_id)
        self._last_conn_id = chosen.conn_id
        return chosen


class CwndAwareScheduler(Scheduler):
    """Aggregation mode: prefer the connection with the most free window.

    This approximates the coupled schedulers of Multipath TCP: a faster
    path drains its queue quicker and therefore shows more free cwnd, so
    it receives proportionally more chunks.
    """

    name = "cwnd_aware"

    def pick(self, stream, connections: List) -> Optional[object]:
        best = None
        best_room = 0
        for conn in connections:
            if not conn.usable():
                continue
            room = conn.send_room()
            if room > best_room:
                best = conn
                best_room = room
        return best


class LowestRttScheduler(Scheduler):
    """Aggregation mode favouring latency: fill the lowest-RTT path first."""

    name = "lowest_rtt"

    def pick(self, stream, connections: List) -> Optional[object]:
        # An unmeasured path (srtt is None) sorts last; a *measured*
        # zero RTT is a legitimate fast path and must sort first, so no
        # falsy-zero coercion here.
        usable = sorted(
            (conn for conn in connections if _sendable(conn)),
            key=lambda conn: (
                1e9 if conn.tcp.rto.srtt is None else conn.tcp.rto.srtt
            ),
        )
        return usable[0] if usable else None


class HealthAwareScheduler(Scheduler):
    """Aggregation mode steered by path health.

    Picks the usable connection with the best (lowest) ``path_score`` —
    RTT inflated by observed loss — so a path that starts
    retransmitting sheds load *before* it fails outright.
    """

    name = "health"

    def pick(self, stream, connections: List) -> Optional[object]:
        best = None
        best_score = None
        for conn in connections:
            if not _sendable(conn):
                continue
            score = path_score(conn)
            if best_score is None or score < best_score:
                best = conn
                best_score = score
        return best


def make_scheduler(name: str) -> Scheduler:
    name = name.lower()
    if name in ("pinned", "hol_avoidance"):
        return PinnedScheduler()
    if name in ("round_robin", "rr"):
        return RoundRobinScheduler()
    if name in ("cwnd_aware", "aggregate", "aggregation"):
        return CwndAwareScheduler()
    if name in ("lowest_rtt", "rtt"):
        return LowestRttScheduler()
    if name in ("health", "health_aware"):
        return HealthAwareScheduler()
    raise ValueError(f"unknown scheduler {name!r}")
