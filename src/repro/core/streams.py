"""TCPLS datastreams (paper section 2.3).

A stream is an ordered, reliable byte channel inside the TCPLS session.
The sender side keeps an outgoing buffer with a running offset; the
receiver side reassembles by offset (data for one stream may arrive over
several TCP connections, in multipath mode, hence out of order).  FIN is
an offset-carrying close marker, mirroring the stream-level connection
termination semantics of section 2.1.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional

CONTROL_STREAM_ID = 0

# Protocol-default per-stream receive window.  A sender assumes this
# much initial credit before the first WINDOW_UPDATE arrives; receivers
# tolerate overshoot up to this bound even when configured with a
# smaller window, so asymmetric configurations converge instead of
# aborting (peers with symmetric contexts are exact from byte 0).
DEFAULT_STREAM_WINDOW = 4 << 20


class TcplsStream:
    """One datastream's endpoint state.

    ``__slots__``-packed: a server-farm run holds thousands of sessions
    with several streams each, and dict-backed instances cost ~3x the
    memory and dirty more cache lines on the per-frame hot path.
    """

    __slots__ = (
        "stream_id",
        "conn_id",
        "attached",
        "send_buffer",
        "send_offset",
        "fin_pending",
        "fin_sent",
        "bytes_sent",
        "recv_next",
        "_segments",
        "_offsets",
        "_buffered",
        "fin_offset",
        "remote_closed",
        "bytes_received",
        "on_data",
        "on_fin",
        "send_limit",
        "stalled",
        "granted_limit",
        "read_buffer",
    )

    def __init__(
        self,
        stream_id: int,
        conn_id: int,
        recv_window: int = DEFAULT_STREAM_WINDOW,
    ) -> None:
        self.stream_id = stream_id
        self.conn_id = conn_id  # the connection the stream is pinned to
        self.attached = False

        # Sender state.
        self.send_buffer = bytearray()
        self.send_offset = 0  # next offset to assign to outgoing data
        self.fin_pending = False
        self.fin_sent = False
        self.bytes_sent = 0
        # Flow-control credit: absolute max offset the peer permits.
        # Starts at the local window on the symmetric-context assumption;
        # WINDOW_UPDATE grants only ever raise it (cumulative max).
        self.send_limit = recv_window
        self.stalled = False  # pending data blocked on zero credit

        # Receiver state.
        self.recv_next = 0  # next in-order offset expected
        self._segments: Dict[int, bytes] = {}
        # Min-heap of exactly the keys of ``_segments``: the earliest
        # buffered offset in O(log n), so reassembling n out-of-order
        # segments costs O(n log n) instead of a min() scan per arrival.
        self._offsets: List[int] = []
        self._buffered = 0  # bytes held in _segments awaiting reassembly
        self.fin_offset: Optional[int] = None
        self.remote_closed = False
        self.bytes_received = 0
        # Receiver-side flow control: credit granted to the peer so far
        # (absolute offset) and the delivered-but-unread app-read queue
        # used when no delivery callback consumes data immediately.
        self.granted_limit = recv_window
        self.read_buffer = bytearray()

        # Delivery callback: set by the session/application.
        self.on_data: Optional[Callable[[bytes], None]] = None
        self.on_fin: Optional[Callable[[], None]] = None

    # -- sender ------------------------------------------------------------

    def queue(self, data: bytes) -> None:
        if self.fin_pending or self.fin_sent:
            raise RuntimeError(f"write to closed stream {self.stream_id}")
        self.send_buffer.extend(data)

    def take_chunk(self, max_bytes: int) -> Optional[tuple]:
        """Pop up to ``max_bytes`` for transmission; returns (offset, data, fin).

        Clamped by the peer's flow-control credit: never advances
        ``send_offset`` past ``send_limit``.  A bare FIN carries no bytes
        and needs no credit.
        """
        if not self.send_buffer:
            if self.fin_pending and not self.fin_sent:
                self.fin_sent = True
                return (self.send_offset, b"", True)
            return None
        max_bytes = min(max_bytes, self.send_limit - self.send_offset)
        if max_bytes <= 0:
            return None
        chunk = bytes(self.send_buffer[:max_bytes])
        del self.send_buffer[:max_bytes]
        offset = self.send_offset
        self.send_offset += len(chunk)
        self.bytes_sent += len(chunk)
        fin = self.fin_pending and not self.send_buffer
        if fin:
            self.fin_sent = True
        return (offset, chunk, fin)

    def close(self) -> None:
        self.fin_pending = True

    def has_pending_data(self) -> bool:
        return bool(self.send_buffer) or (self.fin_pending and not self.fin_sent)

    # -- flow control --------------------------------------------------------
    # The session only does the I/O around these rules: it sends the
    # WINDOW_UPDATE ``grant`` names, re-pumps after ``on_grant``, counts
    # the stall edge and fails the connection ``overruns_credit`` blames.

    def credit_blocked(self) -> bool:
        """Whether queued bytes wait on the peer's credit (a bare FIN
        needs none).  Blocked, not dropped: the stream is marked
        ``stalled`` until a grant raises ``send_limit``."""
        if not self.send_buffer or self.send_offset < self.send_limit:
            return False
        self.stalled = True
        return True

    def on_grant(self, max_offset: int) -> bool:
        """Take a WINDOW_UPDATE grant; True when it raised the credit.

        Grants are cumulative: a stale or replayed one (not above
        ``send_limit``) changes nothing, so credit never shrinks.
        """
        if max_offset <= self.send_limit:
            return False
        self.send_limit = max_offset
        self.stalled = False
        return True

    # -- receiver ------------------------------------------------------------------

    def on_segment(self, offset: int, data: bytes, fin: bool) -> None:
        """Accept possibly out-of-order stream data; deliver what's ready."""
        if fin:
            self.fin_offset = offset + len(data)
        if data:
            if offset < self.recv_next:
                skip = self.recv_next - offset
                if skip >= len(data):
                    data = b""
                else:
                    data = data[skip:]
                    offset = self.recv_next
            if data and offset not in self._segments:
                self._segments[offset] = data
                heapq.heappush(self._offsets, offset)
                self._buffered += len(data)
        self._drain()

    def _drain(self) -> None:
        delivered = bytearray()
        offsets = self._offsets
        while offsets and offsets[0] <= self.recv_next:
            earliest = heapq.heappop(offsets)
            data = self._segments.pop(earliest)
            self._buffered -= len(data)
            skip = self.recv_next - earliest
            if skip < len(data):
                chunk = data[skip:]
                delivered.extend(chunk)
                self.recv_next += len(chunk)
        if delivered:
            self.bytes_received += len(delivered)
            if self.on_data:
                self.on_data(bytes(delivered))
        if (
            self.fin_offset is not None
            and self.recv_next >= self.fin_offset
            and not self.remote_closed
        ):
            self.remote_closed = True
            if self.on_fin:
                self.on_fin()

    def reassembly_bytes(self) -> int:
        """Out-of-order bytes currently buffered awaiting reassembly."""
        return self._buffered

    def app_buffered(self) -> int:
        """Delivered-but-unread bytes sitting in the app-read queue."""
        return len(self.read_buffer)

    def grant(self, window: int) -> Optional[int]:
        """The new credit limit to send the peer, or None while less
        than a quarter of ``window`` has been freed.

        Grants are batched (a grant per delivered record would double
        control traffic) and name an absolute limit: the offset the
        application has consumed up to, plus the window.  With a
        delivery callback, delivery *is* consumption; in pull mode,
        in-order bytes parked in ``read_buffer`` are delivered but not
        yet consumed and earn the peer no new credit.
        """
        new_limit = self.recv_next - len(self.read_buffer) + window
        if new_limit - self.granted_limit < max(1, window // 4):
            return None
        self.granted_limit = new_limit
        return new_limit

    def overruns_credit(self, end: int) -> bool:
        """Whether peer data ending at ``end`` runs past every grant we
        issued.  Overshoot up to the protocol-default window is
        tolerated, so asymmetric configurations converge rather than
        abort."""
        return end > self.granted_limit and end > DEFAULT_STREAM_WINDOW

    def read(self, max_bytes: Optional[int] = None) -> bytes:
        """Drain up to ``max_bytes`` from the app-read queue."""
        if max_bytes is None or max_bytes >= len(self.read_buffer):
            data = bytes(self.read_buffer)
            self.read_buffer.clear()
        else:
            data = bytes(self.read_buffer[:max_bytes])
            del self.read_buffer[:max_bytes]
        return data
