"""Multipath schedulers (paper sections 2.4-2.5).

Two application-selectable modes, mutually exclusive by design
("HOL-blocking avoidance is incompatible with the aggregation of
bandwidth"):

- ``"pinned"`` (HOL-blocking avoidance): each stream stays on its own
  connection, so a loss on one connection never delays another stream;
- ``"aggregate"`` (bandwidth aggregation): one stream's data is striped
  over every active TCP connection, the one with the most free window
  first; the receiver reorders by stream offset (accepting
  cross-connection HOL blocking).

The pick is the one place that decides whether a connection can take a
record: it must be usable and have room for more than a record's
framing overhead.  Chunk sizing is the record-sizing policy's job
(section 4.6).
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.record_sizing import TOTAL_OVERHEAD


def _sendable(conn) -> bool:
    """Room for a record: an established connection whose free window
    exceeds a record's framing overhead, so at least one payload byte
    fits.  Handing a fuller connection a chunk would stall it until the
    window reopens even when another path could have carried it."""
    return conn.usable() and conn.send_room() > TOTAL_OVERHEAD


class Scheduler:
    """Base: pick a connection for the next chunk of a stream."""

    def pick(self, stream, connections: List) -> Optional[object]:
        raise NotImplementedError


class PinnedScheduler(Scheduler):
    """HOL-avoidance mode: a stream only ever uses its own connection."""

    def pick(self, stream, connections: List) -> Optional[object]:
        for conn in connections:
            if conn.conn_id == stream.conn_id and _sendable(conn):
                return conn
        return None


class CwndAwareScheduler(Scheduler):
    """Aggregation mode: prefer the connection with the most free window.

    This approximates the coupled schedulers of Multipath TCP: a faster
    path drains its queue quicker and therefore shows more free cwnd, so
    it receives proportionally more chunks.
    """

    def pick(self, stream, connections: List) -> Optional[object]:
        best = None
        best_room = TOTAL_OVERHEAD  # ``_sendable``'s room rule
        for conn in connections:
            if not conn.usable():
                continue
            room = conn.send_room()
            if room > best_room:
                best = conn
                best_room = room
        return best


def make_scheduler(name: str) -> Scheduler:
    if name == "pinned":
        return PinnedScheduler()
    if name == "aggregate":
        return CwndAwareScheduler()
    raise ValueError(f"unknown scheduler {name!r}")
