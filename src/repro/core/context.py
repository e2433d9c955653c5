"""``TcplsContext``: what a caller sets for the sessions built from it.

Only values some caller actually varies live here: TLS material, the
per-deployment behaviour choices, and the observability hub.  Every
tuning threshold (ACK pacing, reconnect backoff, resource guards, JOIN
rate limit, ticket issuance) is a named constant in the module that
reads it — ``core.session``, ``core.frames``, ``core.recovery``,
``core.server`` and ``core.cookies``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.streams import DEFAULT_STREAM_WINDOW
from repro.obs import Observability
from repro.tls.certificates import Identity, TrustStore
from repro.tls.replay import AntiReplayRegister
from repro.tls.session import SessionTicketStore


@dataclass
class TcplsContext:
    """Configuration for TCPLS sessions (client or server side)."""

    # TLS material.
    identity: Optional[Identity] = None            # server
    trust_store: Optional[TrustStore] = None       # client
    server_name: str = ""                          # client
    ticket_store: Optional[SessionTicketStore] = None
    ticket_key: bytes = b"\x00" * 32
    # Lets several servers share one 0-RTT strike register — a
    # TcplsServer builds its own when left None.
    anti_replay: Optional[AntiReplayRegister] = None
    # Overload retry coupon (client side): a sealed coupon a server
    # handed out when it refused this client under pressure, presented
    # in the redial's ClientHello for cheap-class admission.
    retry_coupon: bytes = b""

    # TCPLS behaviour.
    congestion: str = "reno"
    # The paper's two multipath modes (``scheduler.make_scheduler``):
    # "pinned" keeps each stream on its own connection (HOL-blocking
    # avoidance), "aggregate" stripes streams over the connection with
    # the most free window (bandwidth aggregation).
    multipath_mode: str = "pinned"
    cwnd_match_records: bool = False
    auto_failover: bool = True
    # Applied to every underlying TCP connection so path outages surface
    # as connection failures quickly enough for failover to act (the
    # local analogue of the RFC 5482 option TCPLS ships to the peer).
    connection_user_timeout: Optional[float] = 5.0
    seed: int = 0

    # Per-stream flow control: the credit this endpoint grants a peer
    # per stream.  In-order bytes the application has not consumed plus
    # reassembly backlog may never exceed it, and a compliant sender
    # stalls instead of overrunning.  The default equals
    # ``DEFAULT_STREAM_WINDOW`` so symmetric contexts agree on the
    # initial credit without a handshake extension.
    stream_recv_window: int = DEFAULT_STREAM_WINDOW

    # Observability (repro.obs).  Left None, each session builds its
    # own enabled hub; a hub passed here is shared — one timeline, one
    # metrics registry — by every session built from this context (e.g.
    # a server and everything it accepts), and a disabled one
    # (``Observability(sim, enabled=False)``) turns observation off
    # without changing any simulated result.
    observability: Optional[Observability] = None
