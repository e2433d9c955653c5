"""``TcplsConnection``: one TCP connection inside a TCPLS session."""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.health import path_score
from repro.core.scheduler import _sendable
from repro.obs.tcpinfo import sample_tcp
from repro.tcp.connection import TcpConnection
from repro.tls.record import RecordDecoder

if TYPE_CHECKING:
    from repro.core.session import TcplsSession


class TcplsConnection:
    """One TCP connection inside a TCPLS session; its TCP callbacks
    land on the owning session's ``_on_tcp_*`` handlers.

    ``__slots__``-packed: thousands of concurrent sessions mean
    thousands of these plus their per-frame attribute reads; slots cut
    the per-instance dict and keep the hot fields in fixed offsets.
    """

    __slots__ = (
        "session",
        "conn_id",
        "tcp",
        "state",
        "token",
        "decoder",
        "bytes_delivered",
        "records_received",
        "auth_failure_run",
        "plaintext_junk",
    )

    CONNECTING = "CONNECTING"
    TLS_HANDSHAKE = "TLS_HANDSHAKE"
    JOIN_SENT = "JOIN_SENT"
    ACTIVE = "ACTIVE"
    FAILED = "FAILED"
    CLOSED = "CLOSED"

    def __init__(self, session: "TcplsSession", conn_id: int, tcp: TcpConnection) -> None:
        self.session = session
        self.conn_id = conn_id
        self.tcp = tcp
        self.state = self.CONNECTING
        self.token = b""  # key-derivation token: CONNID or the JOIN cookie
        self.decoder = RecordDecoder()  # raw record splitting only
        self.bytes_delivered = 0
        self.records_received = 0
        self.auth_failure_run = 0  # consecutive open_record failures
        self.plaintext_junk = 0  # post-establishment non-APPDATA records
        tcp.on_data = self._on_data
        tcp.on_established = lambda: session._on_tcp_established(self)
        tcp.on_reset = lambda: session._on_tcp_failed(self, "reset")
        tcp.on_error = lambda reason: session._on_tcp_failed(self, reason)
        tcp.on_close = lambda: session._on_tcp_peer_close(self)
        tcp.on_send_progress = self._on_send_progress

    def _on_data(self, data: bytes) -> None:
        self.session._on_tcp_data(self, data)

    def _on_send_progress(self) -> None:
        """An ACK freed window here: pump only if that made room for a
        record here (the pick's rule).  It changed no other connection's
        room, and every other event that can enable a send pumps itself."""
        if _sendable(self):
            self.session._pump()

    def usable(self) -> bool:
        return self.state == self.ACTIVE and self.tcp.state in (
            "ESTABLISHED", "CLOSE_WAIT",
        )

    def send_room(self) -> int:
        """Free sending capacity: window minus flight minus queued bytes.

        Clamped at zero: queued bytes can exceed the window after a
        congestion-window collapse.
        """
        tcp = self.tcp
        window = tcp.cc.window()
        if tcp.snd_wnd < window:
            window = tcp.snd_wnd
        room = window - tcp.bytes_in_flight() - tcp.send_queue_length()
        return room if room > 0 else 0

    def describe(self) -> dict:
        return {
            "conn_id": self.conn_id,
            "state": self.state,
            "primary": self is self.session.primary,
            "local": f"{self.tcp.local_addr}:{self.tcp.local_port}",
            "remote": f"{self.tcp.remote_addr}:{self.tcp.remote_port}",
            "bytes_delivered": self.bytes_delivered,
            "records_received": self.records_received,
            "path_score": path_score(self),
            "tcp": sample_tcp(self.tcp),
        }
