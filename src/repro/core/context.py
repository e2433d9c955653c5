"""``TcplsContext``: the configuration shared by the sessions built from it."""

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
    send_tickets: int = 2
    # Resumption hardening.  ``ticket_lifetime`` is sealed into every
    # issued ticket and enforced on both ends (the TLS layer reads the
    # simulator clock, wired in by the session).  ``anti_replay`` lets
    # several servers share one 0-RTT strike register — a TcplsServer
    # builds its own when left None.
    ticket_lifetime: int = 7200
    anti_replay: Optional[AntiReplayRegister] = None
    # Overload retry coupon (client side): a sealed coupon a server
    # handed out when it refused this client under pressure, presented
    # in the redial's ClientHello for cheap-class admission.
    retry_coupon: bytes = b""

    # TCPLS behaviour.
    congestion: str = "reno"
    multipath_mode: str = "pinned"   # pinned | aggregate | round_robin | rtt
    ack_every: int = 16
    ack_flush_delay: float = 0.025
    cwnd_match_records: bool = False
    auto_failover: bool = True
    # Applied to every underlying TCP connection so path outages surface
    # as connection failures quickly enough for failover to act (the
    # local analogue of the RFC 5482 option TCPLS ships to the peer).
    connection_user_timeout: Optional[float] = 5.0
    cookie_batch: int = 4
    seed: int = 0

    # Robustness / recovery (client-side reconnection after total path
    # loss, ``core/recovery.py``).  These bound an exponential-backoff
    # retry loop: attempt i waits
    # ``min(backoff_base * 2**(i-1), backoff_max)`` plus a random jitter
    # fraction before redialling, up to ``reconnect_max_retries``
    # attempts (each consuming one JOIN cookie).  ``join_timeout`` is a
    # per-attempt guard for JOINs that hang without the TCP connection
    # dying.
    reconnect_max_retries: int = 4
    reconnect_backoff_base: float = 0.25
    reconnect_backoff_max: float = 4.0
    reconnect_backoff_jitter: float = 0.1
    join_timeout: float = 10.0

    # Resource-exhaustion guards (fail closed; each trip increments the
    # session's ``guard.tripped`` counter).  ``max_streams`` caps the
    # concurrent stream table; ``max_reassembly_bytes`` caps one
    # stream's out-of-order buffer (a peer striping far ahead of a hole
    # is hoarding our memory); ``max_plaintext_records`` caps how much
    # post-establishment plaintext junk (injected non-APPDATA records)
    # a connection tolerates before it is torn down; the JOIN knobs
    # rate-limit cookie-guessing against the server per peer address.
    # ``max_session_memory`` caps the *session-wide* buffered-byte
    # footprint — every stream's reassembly buffer plus the failover
    # replay buffer — so one session cannot hoard a scale run's memory
    # even while each individual stream stays under its own cap.
    max_streams: int = 64
    max_reassembly_bytes: int = 4 << 20
    max_session_memory: int = 16 << 20
    max_plaintext_records: int = 32
    join_rate_limit: int = 8
    join_rate_window: float = 1.0

    # Per-stream flow control.  ``stream_recv_window`` is the credit
    # this endpoint grants a peer per stream: in-order bytes the
    # application has not consumed plus reassembly backlog may never
    # exceed it, and a compliant sender stalls instead of overrunning.
    # The default equals ``DEFAULT_STREAM_WINDOW`` so symmetric contexts
    # agree on the initial credit without a handshake extension.
    # ``stream_send_buffer`` bounds the *local* unsent backlog per
    # stream: 0 queues everything (still capped by
    # ``max_session_memory``); a positive value makes ``send()`` raise
    # ``WouldBlock`` instead of queueing past it, with
    # ``Event.STREAM_WRITABLE`` fired once the backlog drains below
    # half the limit.
    stream_recv_window: int = DEFAULT_STREAM_WINDOW
    stream_send_buffer: int = 0

    # Observability (repro.obs).  ``telemetry`` keeps the per-session
    # hub on by default (instrumentation is observation-only, so
    # disabling it never changes a simulated result); ``observability``
    # shares one hub — one timeline, one metrics registry — across all
    # sessions built from this context (e.g. a server and everything it
    # accepts).
    telemetry: bool = True
    observability: Optional[Observability] = None
