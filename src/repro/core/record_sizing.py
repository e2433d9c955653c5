"""Record sizing: matching TLS records to the TCP congestion window.

Paper section 4.6: "performance advantages of combining those two layers
may be achieved from, for example, adjusting the size of TLS records
based on the current TCP congestion window to avoid fragmented records
(non-fragmented records makes TCPLS' design having a zero-copy code
path)".

A record is *fragmented* when its wire bytes do not fit into the
connection's currently available send window, so the tail waits at least
one ACK before leaving — the receiver cannot decrypt (and thus deliver)
anything until the whole record arrives.  The cwnd-matched policy sizes
each record to the free window, eliminating those stalls; the ablation
benchmark quantifies the difference.
"""

from __future__ import annotations

# Frame overhead inside the plaintext: seq(8) + stream header(13).
FRAME_OVERHEAD = 8 + 4 + 8 + 1
# Record overhead on the wire: TLS header(5) + inner type(1) + tag(16).
RECORD_OVERHEAD = 5 + 1 + 16
TOTAL_OVERHEAD = FRAME_OVERHEAD + RECORD_OVERHEAD


class RecordSizer:
    """Chooses the stream-data payload size for the next record."""

    def __init__(self, max_payload: int = 16000, match_cwnd: bool = False) -> None:
        if max_payload <= 0:
            raise ValueError("max_payload must be positive")
        self.max_payload = max_payload
        self.match_cwnd = match_cwnd
        self.records = 0
        self.fragmented_records = 0

    def chunk_size(self, conn) -> int:
        """Payload bytes for the next record on ``conn``."""
        if not self.match_cwnd:
            return self.max_payload
        # The scheduler only picks a connection with room for more than
        # TOTAL_OVERHEAD, so this is at least one byte.
        return min(self.max_payload, conn.send_room() - TOTAL_OVERHEAD)

    def account(self, payload_length: int, conn) -> None:
        """Record bookkeeping: was this record fragmented by the window?"""
        self.records += 1
        wire = payload_length + TOTAL_OVERHEAD
        if wire > max(conn.send_room(), 0):
            self.fragmented_records += 1

    def stats(self) -> dict:
        return {
            "records": self.records,
            "fragmented": self.fragmented_records,
            "fragmented_ratio": (
                self.fragmented_records / self.records if self.records else 0.0
            ),
        }
