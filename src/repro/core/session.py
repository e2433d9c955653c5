"""The TCPLS session: the object behind every ``tcpls_*`` API call.

A ``TcplsSession`` gathers one TLS 1.3 session and one or more TCP
connections (like a Multipath TCP connection gathers subflows — paper
section 2.1) and runs the machinery of sections 2-3 on top of them:

- per-(stream, connection) cryptographic contexts with receiver-side
  trial decryption;
- session sequence numbers, TCPLS ACKs, replay-on-failover;
- JOIN of additional connections using CONNID + one-time cookies;
- application-driven connection migration and automatic failover on
  spurious RST or outage;
- the secure TCP-option channel (User Timeout working end-to-end);
- congestion-control plugins delivered as bytecode;
- 0-RTT resumption over TCP Fast Open;
- SYN-echo middlebox detection.

``TcplsServer`` demultiplexes incoming TCP connections on a listening
port into new sessions (ClientHello) or JOINs to existing ones.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core import framing, join as joinmod
from repro.core.contexts import CONTROL_STREAM_ID, ContextManager
from repro.core.cookies import CookieJar, CookiePurse, mint_connection_id
from repro.core.events import Event, EventDispatcher
from repro.core.framing import TType
from repro.core.health import PathHealth, best_path
from repro.core.record_sizing import RecordSizer, TOTAL_OVERHEAD
from repro.core.reliability import ReceiveTracker, ReplayBuffer
from repro.core.scheduler import make_scheduler
from repro.core.streams import DEFAULT_STREAM_WINDOW, TcplsStream
from repro.obs import Observability
from repro.obs import keys as obs_keys
from repro.tcp.connection import TcpConnection
from repro.tcp.options import (
    MAX_USER_TIMEOUT_SECONDS,
    UserTimeout,
    decode_single_option,
)
from repro.tcp.stack import TcpStack
from repro.tls import messages as m
from repro.tls.certificates import Identity, TrustStore
from repro.tls.record import ContentType, RecordDecoder, record_header
from repro.tls.replay import AntiReplayRegister
from repro.tls.session import SessionTicketStore, TlsConfig, TlsSession
from repro.utils.bytesio import ByteWriter
from repro.utils.errors import (
    DecodeError,
    GuardLimitExceeded,
    ProtocolViolation,
    UnknownType,
    WouldBlock,
)

# Per-process session counter mixed into each session's RNG: one server
# context accepts many sessions, and each must mint a distinct CONNID and
# cookie set (deterministic given creation order, which the simulator
# fixes).
_session_counter = [0]


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
    # simulator clock, wired in by the session).  ``zero_rtt_anti_replay``
    # sizes the server's bounded 0-RTT strike register (0 disables it);
    # ``anti_replay`` lets several servers share one register — a
    # TcplsServer builds its own when left None.
    ticket_lifetime: int = 7200
    zero_rtt_anti_replay: int = 4096
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
    max_record_payload: int = 16000
    cwnd_match_records: bool = False
    auto_failover: bool = True
    # Applied to every underlying TCP connection so path outages surface
    # as connection failures quickly enough for failover to act (the
    # local analogue of the RFC 5482 option TCPLS ships to the peer).
    connection_user_timeout: Optional[float] = 5.0
    cookie_batch: int = 4
    advertise_addresses: bool = True
    seed: int = 0

    # Robustness / recovery (client-side reconnection after total path
    # loss).  The seed code made exactly one reconnect attempt; these
    # knobs bound an exponential-backoff retry loop instead: attempt i
    # waits ``min(backoff_base * 2**(i-1), backoff_max)`` plus a random
    # jitter fraction before redialling, up to ``reconnect_max_retries``
    # attempts (each consuming one JOIN cookie).  ``join_timeout`` is a
    # per-attempt guard for JOINs that hang without the TCP connection
    # dying.
    reconnect_max_retries: int = 4
    reconnect_backoff_base: float = 0.25
    reconnect_backoff_max: float = 4.0
    reconnect_backoff_jitter: float = 0.1
    join_timeout: float = 10.0

    # How many *consecutive* record-authentication failures a connection
    # tolerates before it is declared compromised and failed over.  A
    # lone forged record injected by an attacker fails once and genuine
    # traffic keeps decrypting (the receive nonce never advanced), so
    # small runs are survivable noise; but a tampered *genuine* record
    # desynchronizes the AEAD nonce sequence and every later record on
    # that connection fails too — only killing the connection (and
    # replaying its unacked frames elsewhere) can recover from that, and
    # a tolerance this small bounds how long the stall lasts.
    auth_failure_tolerance: int = 3

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

    # Per-stream flow control (PR 9).  ``stream_recv_window`` is the
    # credit this endpoint grants a peer per stream: in-order bytes the
    # application has not consumed plus reassembly backlog may never
    # exceed it, and a compliant sender stalls instead of overrunning.
    # The default equals ``DEFAULT_STREAM_WINDOW`` so symmetric contexts
    # agree on the initial credit without a handshake extension.
    # ``stream_send_buffer`` bounds the *local* unsent backlog per
    # stream: 0 keeps the legacy queue-everything behaviour (still
    # capped by ``max_session_memory``); a positive value makes
    # ``send()`` raise ``WouldBlock`` instead of queueing past it, with
    # ``Event.STREAM_WRITABLE`` fired once the backlog drains below
    # half the limit.
    stream_recv_window: int = DEFAULT_STREAM_WINDOW
    stream_send_buffer: int = 0

    # Path health monitor.  ``health_interval > 0`` arms a periodic tick
    # that refreshes per-path loss scores and sends a heartbeat PING on
    # connections idle longer than ``health_idle_ping`` (keeping TCP's
    # RTT/loss signals fresh on quiet paths so a dead one is noticed).
    # Off by default: scoring itself works without the tick, and the
    # tick adds wire traffic.
    health_interval: float = 0.0
    health_idle_ping: float = 1.0

    # Observability (repro.obs).  ``telemetry`` keeps the per-session
    # hub on by default (instrumentation is observation-only, so
    # disabling it never changes a simulated result); ``observability``
    # shares one hub — one timeline, one metrics registry — across all
    # sessions built from this context (e.g. a server and everything it
    # accepts).
    telemetry: bool = True
    observability: Optional[Observability] = None

    def rng(self) -> random.Random:
        return random.Random(self.seed)


class TcplsConnection:
    """One TCP connection inside a TCPLS session.

    ``__slots__``-packed: thousands of concurrent sessions mean
    thousands of these plus their per-frame attribute reads; slots cut
    the per-instance dict and keep the hot fields in fixed offsets.
    """

    __slots__ = (
        "session",
        "conn_id",
        "tcp",
        "state",
        "is_primary",
        "token",
        "decoder",
        "bytes_delivered",
        "records_received",
        "auth_failure_run",
        "plaintext_junk",
        "health",
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
        self.is_primary = False
        self.token = b""  # key-derivation token: CONNID or the JOIN cookie
        self.decoder = RecordDecoder()  # raw record splitting only
        self.bytes_delivered = 0
        self.records_received = 0
        self.auth_failure_run = 0  # consecutive open_record failures
        self.plaintext_junk = 0  # post-establishment non-APPDATA records
        self.health = PathHealth()
        tcp.on_data = self._on_data
        tcp.on_established = lambda: session._on_tcp_established(self)
        tcp.on_reset = lambda: session._on_tcp_failed(self, "reset")
        tcp.on_error = lambda reason: session._on_tcp_failed(self, reason)
        tcp.on_close = lambda: session._on_tcp_peer_close(self)
        tcp.on_send_progress = session._pump

    def _on_data(self, data: bytes) -> None:
        self.session._on_tcp_data(self, data)

    def usable(self) -> bool:
        return self.state == self.ACTIVE and self.tcp.state in (
            "ESTABLISHED", "CLOSE_WAIT",
        )

    def send_room(self) -> int:
        """Free sending capacity: window minus flight minus queued bytes.

        Clamped at zero: queued bytes can exceed the window after a
        congestion-window collapse, and a negative value skews the
        round-robin scheduler's capacity comparisons.
        """
        info_window = min(self.tcp.cc.window(), self.tcp.snd_wnd)
        room = info_window - self.tcp.bytes_in_flight() - self.tcp.send_queue_length()
        return max(0, room)

    def path_score(self) -> float:
        """Health score (lower is better) for scheduler/failover choice."""
        return self.health.score(self)

    def describe(self) -> dict:
        return {
            "conn_id": self.conn_id,
            "state": self.state,
            "primary": self.is_primary,
            "local": f"{self.tcp.local_addr}:{self.tcp.local_port}",
            "remote": f"{self.tcp.remote_addr}:{self.tcp.remote_port}",
            "tcp": self.tcp.info(),
            "health": self.health.describe(self),
        }


class TcplsSession:
    """One endpoint (client or server) of a TCPLS session."""

    def __init__(
        self,
        context: TcplsContext,
        stack: TcpStack,
        is_server: bool = False,
    ) -> None:
        self.context = context
        self.stack = stack
        self.sim = stack.sim
        self.is_server = is_server
        _session_counter[0] += 1
        self.rng = random.Random(
            (context.seed, _session_counter[0], is_server).__hash__() & 0x7FFFFFFF
        )

        self.connections: Dict[int, TcplsConnection] = {}
        self._next_conn_id = 0
        self.primary: Optional[TcplsConnection] = None

        self.streams: Dict[int, TcplsStream] = {}
        self._next_stream_id = 2 if is_server else 1

        self.tls: Optional[TlsSession] = None
        self.handshake_complete = False
        self.contexts: Optional[ContextManager] = None
        self.replay = ReplayBuffer()
        self.tracker = ReceiveTracker()
        self.sizer = RecordSizer(
            max_payload=context.max_record_payload,
            match_cwnd=context.cwnd_match_records,
        )
        self.scheduler = make_scheduler(
            context.multipath_mode if context.multipath_mode != "pinned" else "pinned"
        )
        self.multipath_enabled = context.multipath_mode != "pinned"
        self.events = EventDispatcher()

        # Identity / join state.
        self.connection_id = b""
        self.cookie_jar = CookieJar(self.rng, batch_size=context.cookie_batch)
        self.cookie_purse = CookiePurse()
        self.peer_v4_addresses: List[str] = []
        self.peer_v6_addresses: List[str] = []

        # Application callbacks.
        self.on_stream_data: Optional[Callable[[int, bytes], None]] = None
        self.on_stream_fin: Optional[Callable[[int], None]] = None
        self.on_early_data: Optional[Callable[[bytes], None]] = None

        # Accounting for the experiments.
        self.delivery_log: List[Tuple[float, int, int]] = []  # (time, conn, bytes)
        self.stats = {
            "records_sent": 0,
            "records_received": 0,
            "frames_replayed": 0,
            "acks_sent": 0,
            "acks_received": 0,
        }
        self._unacked_since_flush = 0
        self._ack_flush_event = None
        self._closing = False
        self.session_closed = False
        self._probe_reports: Dict[int, List[str]] = {}

        # Robustness state.  ``_reconnect`` is the in-flight reconnection
        # state machine (None when idle); ``_degraded_level`` is None,
        # "single_path" or "no_path"; ``_peak_active`` remembers the best
        # path redundancy the session ever had, so dropping from 2 paths
        # to 1 counts as degradation but a single-path session does not.
        self._reconnect: Optional[dict] = None
        self._degraded_level: Optional[str] = None
        self._degraded_since = 0.0
        self._peak_active = 0
        self._health_timer = None

        # Observability: one hub per session unless the context shares
        # one.  Instruments are looked up once here so the hot paths
        # below are single attribute increments.
        self.obs = context.observability or Observability(
            self.sim, enabled=context.telemetry
        )
        component = obs_keys.session_component(is_server)
        self._obs_component = component
        telemetry = self.obs.telemetry
        self._obs_records_sent = telemetry.counter(component, obs_keys.RECORDS_SENT)
        self._obs_records_received = telemetry.counter(
            component, obs_keys.RECORDS_RECEIVED
        )
        self._obs_record_bytes = telemetry.histogram(
            component, obs_keys.RECORD_BYTES
        )
        self._obs_acks_sent = telemetry.counter(component, obs_keys.ACKS_SENT)
        self._obs_acks_received = telemetry.counter(
            component, obs_keys.ACKS_RECEIVED
        )
        self._obs_frames_replayed = telemetry.counter(
            component, obs_keys.FRAMES_REPLAYED
        )
        self._obs_stream_bytes = telemetry.counter(
            component, obs_keys.STREAM_BYTES_RECEIVED
        )
        # Fault & recovery counters (the fault-injection test matrix and
        # the invariant checker read these).
        self._obs_retries = telemetry.counter(component, obs_keys.FAILOVER_RETRIES)
        self._obs_recovered = telemetry.counter(
            component, obs_keys.FAILOVER_RECOVERED
        )
        self._obs_abandoned = telemetry.counter(
            component, obs_keys.FAILOVER_ABANDONED
        )
        self._obs_cookies_exhausted = telemetry.counter(
            component, obs_keys.FAILOVER_COOKIES_EXHAUSTED
        )
        self._obs_pings = telemetry.counter(component, obs_keys.HEALTH_PINGS_SENT)
        # Fail-closed wire hardening: rejected decodes and tripped
        # resource guards, per layer (the fuzz/attacker tests and the
        # BENCH export read these).
        self._obs_decode_rejected = telemetry.counter(
            component, obs_keys.DECODE_REJECTED
        )
        self._obs_guard_tripped = telemetry.counter(
            component, obs_keys.GUARD_TRIPPED
        )
        self._obs_memory = telemetry.gauge(
            component, obs_keys.SESSION_MEMORY_BYTES
        )
        # Resumption outcomes (the recovery benchmark reads these to
        # compute the 0-RTT acceptance rate across a key rotation).
        self._obs_psk_accepted = telemetry.counter(
            component, obs_keys.RESUMPTION_PSK_ACCEPTED
        )
        self._obs_psk_declined = telemetry.counter(
            component, obs_keys.RESUMPTION_PSK_DECLINED
        )
        self._obs_early_accepted = telemetry.counter(
            component, obs_keys.RESUMPTION_EARLY_ACCEPTED
        )
        self._obs_early_rejected = telemetry.counter(
            component, obs_keys.RESUMPTION_EARLY_REJECTED
        )
        self._obs_replay_rejected = telemetry.counter(
            component, obs_keys.RESUMPTION_REPLAY_REJECTED
        )
        # Per-stream flow control (the overload tests and O1 benchmark
        # read these to prove backpressure engaged).
        self._obs_flow_would_block = telemetry.counter(
            component, obs_keys.FLOW_WOULD_BLOCK
        )
        self._obs_flow_stalls = telemetry.counter(
            component, obs_keys.FLOW_STALLS
        )
        self._obs_flow_writable = telemetry.counter(
            component, obs_keys.FLOW_WRITABLE
        )
        self._obs_flow_updates_sent = telemetry.counter(
            component, obs_keys.FLOW_WINDOW_UPDATES_SENT
        )
        self._obs_flow_updates_received = telemetry.counter(
            component, obs_keys.FLOW_WINDOW_UPDATES_RECEIVED
        )
        self._obs_flow_violations = telemetry.counter(
            component, obs_keys.FLOW_VIOLATIONS
        )
        self.events.observer = self._observe_session_event
        self.events.clock = lambda: self.sim.now
        self._hs_span = None
        self._join_spans: Dict[int, object] = {}

    # ------------------------------------------------------------------
    # Event registration
    # ------------------------------------------------------------------

    def on(self, event: str, handler: Callable) -> None:
        self.events.on(event, handler)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    # Session state transitions worth a TCP_INFO snapshot of every
    # connection (cheap: a handful per session lifetime, never per-record).
    _SNAPSHOT_EVENTS = frozenset(
        (
            Event.HANDSHAKE_DONE,
            Event.JOIN,
            Event.FAILOVER,
            Event.CONN_FAILED,
            Event.CONN_CLOSED,
            Event.MIGRATION_DONE,
            Event.SESSION_DEGRADED,
            Event.SESSION_RECOVERED,
        )
    )

    def _observe_session_event(self, event: str, kwargs: dict) -> None:
        """EventDispatcher tap: mirror every session event onto the
        timeline (correlatable with pcap timestamps) and snapshot TCP
        state on the transitions the paper's figures care about."""
        self.obs.tracer.point(self._obs_component, event, **kwargs)
        self.obs.telemetry.counter(
            self._obs_component, obs_keys.session_event(event)
        ).inc()
        if event in self._SNAPSHOT_EVENTS:
            self.obs.tcp_log.sample(event, self.connections.values())

    def metrics(self) -> dict:
        """Machine-readable self-description: stats, counters, per-
        connection TCP snapshots, and the event timeline."""
        from repro.obs.export import _session_metrics

        return _session_metrics(self)

    # ------------------------------------------------------------------
    # Connection management (client)
    # ------------------------------------------------------------------

    def connect(
        self,
        dest: str,
        port: int = 443,
        src: Optional[str] = None,
        fast_open: bool = False,
        fast_open_data: bytes = b"",
    ) -> int:
        """Open a TCP connection toward the server; returns a conn id.

        ``src`` pins the connection to a local address (explicit
        multipath: ``tcpls_connect(src, dest)``).
        """
        tcp = self.stack.connect(
            dest,
            port,
            local_addr=src,
            congestion=self.context.congestion,
            fast_open=fast_open,
            fast_open_data=fast_open_data,
        )
        return self._register_tcp(tcp).conn_id

    def _register_tcp(self, tcp: TcpConnection) -> TcplsConnection:
        if self.context.connection_user_timeout is not None:
            tcp.set_user_timeout(self.context.connection_user_timeout)
        conn = TcplsConnection(self, self._next_conn_id, tcp)
        self.connections[self._next_conn_id] = conn
        self._next_conn_id += 1
        return conn

    def happy_eyeballs_connect(
        self,
        dest_v4: str,
        dest_v6: str,
        port: int = 443,
        timeout: float = 0.050,
    ) -> dict:
        """Race v4 and v6 connects, preferring whichever establishes first.

        Mirrors the Figure 3 pattern: try the first family; if it has not
        established within ``timeout`` (50 ms in the paper), also start
        the second; the first to establish wins and the loser is aborted.
        Returns a dict whose ``winner``/``v4``/``v6`` fields fill in as
        the simulation progresses.
        """
        result = {"winner": None, "v4": None, "v6": None}
        result["v4"] = self.connect(dest_v4, port)

        def on_established(conn_id: int) -> None:
            if result["winner"] is not None:
                return
            if conn_id not in (result["v4"], result["v6"]):
                return
            result["winner"] = conn_id
            for loser_id in (result["v4"], result["v6"]):
                if loser_id is not None and loser_id != conn_id:
                    loser = self.connections[loser_id]
                    if loser.state == TcplsConnection.CONNECTING:
                        loser.state = TcplsConnection.CLOSED
                        loser.tcp.abort()

        self.events.on(Event.CONN_ESTABLISHED, on_established)

        def start_v6_if_needed() -> None:
            if result["winner"] is None:
                result["v6"] = self.connect(dest_v6, port)

        self.sim.schedule(timeout, start_v6_if_needed)
        return result

    # ------------------------------------------------------------------
    # Handshake
    # ------------------------------------------------------------------

    def handshake(self, conn_id: Optional[int] = None, early_data: bytes = b"") -> None:
        """Start the TLS/TCPLS handshake (client).

        With ``conn_id`` naming a non-primary connection after the
        session is established, this performs a JOIN on that connection
        instead (the Figure 4 migration chain's first call).
        """
        if self.is_server:
            raise RuntimeError("handshake() is client-side; use TcplsServer")
        conn = self._resolve_conn(conn_id)
        if self.handshake_complete:
            self._start_join(conn)
            return
        self._start_tls_client(conn, early_data)

    def _resolve_conn(self, conn_id: Optional[int]) -> TcplsConnection:
        if conn_id is not None:
            return self.connections[conn_id]
        if self.primary is not None and self.primary.state not in (
            TcplsConnection.FAILED,
            TcplsConnection.CLOSED,
        ):
            return self.primary
        # The primary is gone: pin to the healthiest surviving path
        # instead of silently targeting a dead connection.
        fallback = best_path(self._active_conns())
        if fallback is not None:
            return fallback
        if not self.connections:
            raise RuntimeError("no connection; call connect() first")
        return next(iter(self.connections.values()))

    def _wire_tls_guards(self, tls: TlsSession) -> None:
        """Feed TLS-layer rejections into the session's observability.

        The TLS driver fails closed on its own (alert + teardown); this
        only makes those events visible in ``decode.rejected`` /
        ``guard.tripped`` alongside the TCPLS-layer ones.
        """
        tls.on_decode_rejected = lambda _why: self._obs_decode_rejected.inc()
        tls.on_guard_tripped = lambda _why: self._obs_guard_tripped.inc()

    def _client_extensions(self) -> List[Tuple[int, bytes]]:
        """ClientHello extensions: the TCPLS marker, plus a retry coupon
        when a refusing server handed one out (cheap-class admission on
        the redial)."""
        extensions = [(joinmod.EXT_TCPLS, joinmod.build_tcpls_marker())]
        if self.context.retry_coupon:
            extensions.append((m.EXT_TCPLS_COUPON, self.context.retry_coupon))
        return extensions

    def _start_tls_client(self, conn: TcplsConnection, early_data: bytes) -> None:
        conn.is_primary = True
        self.primary = conn
        self._hs_span = self.obs.tracer.span(
            self._obs_component, "handshake", conn_id=conn.conn_id,
            early_data=bool(early_data),
        )
        tls_config = TlsConfig(
            trust_store=self.context.trust_store,
            server_name=self.context.server_name,
            ticket_store=self.context.ticket_store,
            extra_client_extensions=self._client_extensions(),
            rng=random.Random(self.rng.randrange(1 << 30)),
            clock=lambda: self.sim.now,
        )
        self.tls = TlsSession(
            tls_config, is_server=False, transport_write=conn.tcp.send
        )
        self._wire_tls_guards(self.tls)
        self.tls.on_handshake_complete = lambda: self._on_tls_complete(conn)

        def start():
            conn.state = TcplsConnection.TLS_HANDSHAKE
            self.tls.start_handshake(early_data=early_data)

        if conn.tcp.state == "ESTABLISHED":
            start()
        else:
            previous = conn.tcp.on_established

            def on_established():
                if previous:
                    previous()
                start()

            conn.tcp.on_established = on_established

    def connect_0rtt(
        self, dest: str, port: int = 443, early_data: bytes = b""
    ) -> int:
        """0-RTT TCPLS (section 4.2): TLS 0-RTT inside a TFO SYN.

        The ClientHello plus early-data records ride in the SYN payload;
        on a path with a cached TFO cookie and a resumption ticket the
        server application sees the request with zero extra round trips.
        """
        if self.is_server:
            raise RuntimeError("connect_0rtt is client-side")
        first_flight = bytearray()
        hold = [first_flight.extend]

        def write(data: bytes) -> None:
            hold[0](data)

        tls_config = TlsConfig(
            trust_store=self.context.trust_store,
            server_name=self.context.server_name,
            ticket_store=self.context.ticket_store,
            extra_client_extensions=self._client_extensions(),
            rng=random.Random(self.rng.randrange(1 << 30)),
            clock=lambda: self.sim.now,
        )
        self.tls = TlsSession(tls_config, is_server=False, transport_write=write)
        self._wire_tls_guards(self.tls)
        self.tls.start_handshake(early_data=early_data)
        syn_payload = bytes(first_flight)

        conn_id = self.connect(
            dest, port, fast_open=True, fast_open_data=syn_payload
        )
        conn = self.connections[conn_id]
        conn.is_primary = True
        conn.state = TcplsConnection.TLS_HANDSHAKE
        self.primary = conn
        self._hs_span = self.obs.tracer.span(
            self._obs_component, "handshake", conn_id=conn.conn_id,
            zero_rtt=True,
        )
        hold[0] = conn.tcp.send  # later flights go straight to TCP
        self.tls.on_handshake_complete = lambda: self._on_tls_complete(conn)
        return conn_id

    # -- server side (driven by TcplsServer) ------------------------------

    def accept_primary(self, tcp: TcpConnection, initial_bytes: bytes) -> None:
        conn = self._register_tcp(tcp)
        conn.is_primary = True
        conn.state = TcplsConnection.TLS_HANDSHAKE
        self.primary = conn
        self._hs_span = self.obs.tracer.span(
            self._obs_component, "handshake", conn_id=conn.conn_id
        )

        self.connection_id = mint_connection_id(self.rng)
        cookies = self.cookie_jar.mint()
        params = joinmod.TcplsServerParams(
            connection_id=self.connection_id,
            cookies=cookies,
            v4_addresses=[
                str(a) for a in self.stack.host.addresses(version=4)
            ] if self.context.advertise_addresses else [],
            v6_addresses=[
                str(a) for a in self.stack.host.addresses(version=6)
            ] if self.context.advertise_addresses else [],
        )
        tls_config = TlsConfig(
            identity=self.context.identity,
            ticket_key=self.context.ticket_key,
            send_tickets=self.context.send_tickets,
            ticket_lifetime=self.context.ticket_lifetime,
            anti_replay=self.context.anti_replay,
            extra_encrypted_extensions=[(joinmod.EXT_TCPLS, params.to_bytes())],
            rng=random.Random(self.rng.randrange(1 << 30)),
            clock=lambda: self.sim.now,
        )
        self.tls = TlsSession(tls_config, is_server=True, transport_write=tcp.send)
        self._wire_tls_guards(self.tls)
        self.tls.on_handshake_complete = lambda: self._on_tls_complete(conn)
        self.tls.on_early_data = self._on_tls_early_data
        if initial_bytes:
            self._on_tcp_data(conn, initial_bytes)

    def _on_tls_early_data(self, data: bytes) -> None:
        if self.on_early_data:
            self.on_early_data(data)

    # -- handshake completion ------------------------------------------------

    def _on_tls_complete(self, conn: TcplsConnection) -> None:
        self.handshake_complete = True
        conn.state = TcplsConnection.ACTIVE
        if self._hs_span is not None:
            self._hs_span.end()
            self._hs_span = None
        # Resumption outcome counters, from the TLS layer's flags.
        if self.tls.psk_offered:
            if self.tls.used_psk:
                self._obs_psk_accepted.inc()
            else:
                self._obs_psk_declined.inc()
        if self.tls.early_data_accepted:
            self._obs_early_accepted.inc()
        elif self.tls.early_data_sent or self.tls.early_replay_rejected:
            self._obs_early_rejected.inc()
        if self.tls.early_replay_rejected:
            self._obs_replay_rejected.inc()
        # Post-handshake TLS records (tickets, key updates) feed the
        # same record-size histogram as TCPLS frames.
        self.tls.encoder.on_record_encrypted = self._obs_record_bytes.observe
        self.tls.decoder.on_record_decrypted = self._obs_record_bytes.observe
        self.contexts = ContextManager(self.tls.export, is_client=not self.is_server)

        if not self.is_server:
            body = m.get_extension(
                self.tls.peer_encrypted_extensions, joinmod.EXT_TCPLS
            )
            if body is None:
                raise ProtocolViolation("server did not negotiate TCPLS")
            params = joinmod.TcplsServerParams.from_bytes(body)
            self.connection_id = params.connection_id
            self.cookie_purse.deposit(params.cookies)
            self.peer_v4_addresses = params.v4_addresses
            self.peer_v6_addresses = params.v6_addresses
            if params.v4_addresses or params.v6_addresses:
                self.events.emit(
                    Event.ADDRESS_ADVERTISED,
                    v4=params.v4_addresses,
                    v6=params.v6_addresses,
                )
        conn.token = self.connection_id

        # The TLS application cipher states become the primary control
        # context, keeping one nonce sequence with post-handshake TLS.
        self.contexts.install_external(
            CONTROL_STREAM_ID,
            conn.conn_id,
            send=self.tls.encoder.cipher,
            recv=self.tls.decoder.cipher,
        )
        self.events.emit(Event.HANDSHAKE_DONE, conn_id=conn.conn_id)
        self._note_path_active()
        self._start_health_monitor()
        self._pump()

    # ------------------------------------------------------------------
    # JOIN (client side)
    # ------------------------------------------------------------------

    def _start_join(self, conn: TcplsConnection) -> None:
        cookie = self.cookie_purse.withdraw()
        if cookie is None:
            self._on_tcp_failed(conn, "no JOIN cookie available")
            return
        conn.token = cookie
        self._join_spans[conn.conn_id] = self.obs.tracer.span(
            self._obs_component, "join", conn_id=conn.conn_id
        )

        def send_join():
            conn.state = TcplsConnection.JOIN_SENT
            hello = joinmod.build_join_client_hello(
                self.connection_id, cookie, self.rng
            )
            conn.tcp.send(record_header(ContentType.HANDSHAKE, len(hello)) + hello)
            # Derive this connection's contexts from the session + cookie.
            self.contexts.install(CONTROL_STREAM_ID, conn.conn_id, cookie)

        if conn.tcp.state == "ESTABLISHED":
            send_join()
        else:
            previous = conn.tcp.on_established

            def on_established():
                if previous:
                    previous()
                send_join()

            conn.tcp.on_established = on_established

    # -- server side JOIN (driven by TcplsServer) -----------------------------

    def adopt_joined_connection(
        self, tcp: TcpConnection, cookie: bytes, leftover: bytes
    ) -> bool:
        if not self.cookie_jar.consume(cookie):
            tcp.abort("invalid TCPLS cookie")
            return False
        conn = self._register_tcp(tcp)
        conn.token = cookie
        self.contexts.install(CONTROL_STREAM_ID, conn.conn_id, cookie)
        self._activate_joined(conn)
        self._send_frame(
            conn, TType.JOIN_ACK, framing.encode_join_ack(conn.conn_id), seq=0
        )
        self.events.emit(Event.JOIN, conn_id=conn.conn_id)
        # Replenish what the JOIN consumed (plus cover for attempts that
        # burned a cookie without completing): without a top-up, a few
        # reconnect cycles exhaust the handshake batch and the next
        # failure becomes unrecoverable.  Sent as sequenced control data,
        # so a replenishment in flight when a path dies is replayed.
        if self.context.cookie_batch > 0:
            self.send_new_cookies(self.context.cookie_batch)
        if leftover:
            self._on_tcp_data(conn, leftover)
        return True

    def _activate_joined(self, conn: TcplsConnection) -> None:
        conn.state = TcplsConnection.ACTIVE
        # Every attached stream gains contexts on the new connection so
        # multipath striping and migration can use it immediately.
        for stream in self.streams.values():
            if stream.attached:
                self.contexts.install(stream.stream_id, conn.conn_id, conn.token)
        self._note_path_active()

    # ------------------------------------------------------------------
    # Streams
    # ------------------------------------------------------------------

    def stream_new(self, conn_id: Optional[int] = None) -> int:
        conn = self._resolve_conn(conn_id)
        stream_id = self._next_stream_id
        self._next_stream_id += 2
        stream = TcplsStream(
            stream_id, conn.conn_id,
            recv_window=self.context.stream_recv_window,
        )
        self._wire_stream(stream)
        self.streams[stream_id] = stream
        return stream_id

    def _wire_stream(self, stream: TcplsStream) -> None:
        stream.on_data = lambda data: self._deliver_stream_data(stream, data)
        stream.on_fin = lambda: self._on_stream_fin(stream)

    def streams_attach(self) -> None:
        """Announce every unattached stream to the peer (STREAM_OPEN)."""
        if not self.handshake_complete:
            raise RuntimeError("streams_attach before handshake completion")
        for stream in self.streams.values():
            if stream.attached:
                continue
            stream.attached = True
            for conn in self._active_conns():
                self.contexts.install(stream.stream_id, conn.conn_id, conn.token)
            seq = self.replay.next_seq()
            body = framing.encode_stream_open(stream.stream_id, stream.conn_id)
            self.replay.store(seq, TType.STREAM_OPEN, stream.stream_id, body)
            # Announce on EVERY active connection (same seq; the receiver
            # deduplicates): each TCP's in-order delivery then guarantees
            # the peer knows the stream before any of its data arrives on
            # that connection — otherwise data racing ahead of the
            # STREAM_OPEN on another connection would fail trial
            # decryption and be lost.
            for conn in self._active_conns():
                self._send_frame(
                    conn, TType.STREAM_OPEN, body, seq,
                    stream_id=CONTROL_STREAM_ID,
                )
            self.events.emit(
                Event.STREAM_ATTACHED,
                stream_id=stream.stream_id,
                conn_id=stream.conn_id,
            )

    def send(self, stream_id: int, data: bytes) -> int:
        stream = self.streams[stream_id]
        limit = self.context.stream_send_buffer
        if limit > 0 and len(stream.send_buffer) + len(data) > limit:
            # Typed backpressure: the peer has not granted enough credit
            # to drain the local queue.  Nothing is queued; the caller
            # waits for Event.STREAM_WRITABLE and retries.
            stream.writable_blocked = True
            self._obs_flow_would_block.inc()
            raise WouldBlock(stream_id, len(stream.send_buffer), limit)
        if (
            self.session_memory_bytes() + len(data)
            > self.context.max_session_memory
        ):
            # Fail closed toward the application: queueing past the
            # session budget would let one slow peer pin unbounded local
            # memory.  The caller sees backpressure as an exception
            # instead of the farm seeing an OOM.
            self._obs_guard_tripped.inc()
            raise GuardLimitExceeded(
                f"session memory budget "
                f"({self.context.max_session_memory}B) exhausted; "
                f"refusing {len(data)}B write to stream {stream_id}"
            )
        stream.queue(data)
        self._obs_memory.set(self.session_memory_bytes())
        self._pump()
        return len(data)

    def session_memory_bytes(self) -> int:
        """Buffered bytes this session currently pins.

        Counts every stream's send queue, out-of-order reassembly
        buffer, and delivered-but-unread app-read queue, plus the
        failover replay buffer — the stores whose growth is driven by
        the peer (or a slow consumer) rather than by us.  All are O(1)
        reads.
        """
        total = self.replay.pending_bytes()
        for stream in self.streams.values():
            total += (
                len(stream.send_buffer)
                + stream.reassembly_bytes()
                + stream.app_buffered()
            )
        return total

    def recv_data(self, stream_id: int, max_bytes: Optional[int] = None) -> bytes:
        """Pull delivered stream bytes from the app-read queue.

        Only meaningful when no ``on_stream_data`` callback consumes
        data at delivery time.  Draining the queue returns flow-control
        credit to the peer (a WINDOW_UPDATE grant once a quarter of the
        window has been consumed), so a reader that stops calling this
        backpressures the sender instead of growing our memory.
        """
        stream = self.streams.get(stream_id)
        if stream is None:
            return b""
        data = stream.read(max_bytes)
        if data:
            self._obs_memory.set(self.session_memory_bytes())
            self._maybe_grant_credit(stream)
        return data

    def stream_close(self, stream_id: int) -> None:
        stream = self.streams.get(stream_id)
        if stream is None or stream.fin_pending:
            return
        stream.close()
        self._pump()

    def close(self) -> None:
        """Securely terminate: close all streams, then the session."""
        self._closing = True
        for stream_id in list(self.streams):
            self.stream_close(stream_id)
        self._pump()

    def crash(self) -> None:
        """Crash-model teardown: the owning process died.

        Nothing goes on the wire (no close_notify, no FIN, no RST at the
        instant of death) and no session events fire — there is no
        process left to send or observe them.  Timers are cancelled so
        the corpse cannot act, and every TCP connection vanishes from
        the stack; the peer learns of the death from the RSTs the
        still-running stack sends for its now-unknown connections.
        """
        self.session_closed = True
        self._closing = True
        if self._ack_flush_event is not None:
            self._ack_flush_event.cancel()
            self._ack_flush_event = None
        if self._health_timer is not None:
            self._health_timer.cancel()
            self._health_timer = None
        self._reconnect = None
        for conn in list(self.connections.values()):
            conn.state = TcplsConnection.CLOSED
            conn.tcp.vanish()
        self.connections.clear()

    # ------------------------------------------------------------------
    # The send pump
    # ------------------------------------------------------------------

    def _active_conns(self) -> List[TcplsConnection]:
        return [c for c in self.connections.values() if c.usable()]

    def _pump(self) -> None:
        if not self.handshake_complete or self.contexts is None:
            return
        conns = self._active_conns()
        if not conns:
            return
        progress = True
        while progress:
            progress = False
            for stream in list(self.streams.values()):
                if not stream.attached or not stream.has_pending_data():
                    continue
                if stream.send_buffer and stream.send_credit() <= 0:
                    # Out of flow-control credit: the peer's receive
                    # window is exhausted.  Blocked here, not dropped —
                    # a WINDOW_UPDATE grant re-pumps.
                    if not stream.stalled:
                        stream.stalled = True
                        self._obs_flow_stalls.inc()
                    continue
                conn = self.scheduler.pick(stream, conns)
                if conn is None or conn.send_room() <= TOTAL_OVERHEAD:
                    continue
                chunk_size = self.sizer.chunk_size(conn)
                taken = stream.take_chunk(chunk_size)
                if taken is None:
                    continue
                offset, data, fin = taken
                self._send_stream_chunk(stream, conn, offset, data, fin)
                self._maybe_writable(stream)
                progress = True
        self._maybe_session_close()

    def _maybe_writable(self, stream: TcplsStream) -> None:
        """Fire STREAM_WRITABLE once a blocked stream's backlog drains.

        Hysteresis at half the send-buffer limit: the event means a
        retried ``send()`` of reasonable size will succeed, not that a
        single byte of headroom appeared.
        """
        if not stream.writable_blocked:
            return
        limit = self.context.stream_send_buffer
        if limit > 0 and len(stream.send_buffer) > limit // 2:
            return
        stream.writable_blocked = False
        self._obs_flow_writable.inc()
        self.events.emit(Event.STREAM_WRITABLE, stream_id=stream.stream_id)

    def _send_stream_chunk(
        self,
        stream: TcplsStream,
        conn: TcplsConnection,
        offset: int,
        data: bytes,
        fin: bool,
    ) -> None:
        if data:
            seq = self.replay.next_seq()
            body = framing.encode_stream_data(
                stream.stream_id, offset, data, fin=False
            )
            self.replay.store(seq, TType.STREAM_DATA, stream.stream_id, body)
            self.sizer.account(len(data), conn)
            self._send_frame(
                conn, TType.STREAM_DATA, body, seq, stream_id=stream.stream_id
            )
        if fin:
            close_seq = self.replay.next_seq()
            close_body = framing.encode_stream_close(
                stream.stream_id, offset + len(data)
            )
            self.replay.store(
                close_seq, TType.STREAM_CLOSE, stream.stream_id, close_body
            )
            self._send_frame(conn, TType.STREAM_CLOSE, close_body, close_seq)
            self.events.emit(Event.STREAM_CLOSED, stream_id=stream.stream_id)
            self._maybe_retire_connection(stream)

    def _maybe_retire_connection(self, closed_stream: TcplsStream) -> None:
        """Section 2.1/3.2: closing the last stream attached to a TCP
        connection retires that connection (graceful FIN) — the "secure
        closing of the v4 TCP connection" step of the migration chain.
        Only applies while other active connections remain and the
        session itself is not closing (session close handles the rest)."""
        conn = self.connections.get(closed_stream.conn_id)
        if conn is None or not conn.usable():
            return
        if self._closing or self.session_closed:
            return
        local_parity = 0 if self.is_server else 1
        still_pinned = [
            s
            for s in self.streams.values()
            if s.attached
            and s.conn_id == conn.conn_id
            and s is not closed_stream
            and not s.fin_sent
            # Only streams we originated hold the connection open; the
            # peer reacts to our close by re-pinning its own streams
            # (the paper's server "seamlessly switches the path").
            and s.stream_id % 2 == local_parity
        ]
        if still_pinned:
            return
        others = [c for c in self._active_conns() if c is not conn]
        if not others:
            return  # never retire the only connection
        conn.state = TcplsConnection.CLOSED
        conn.tcp.close()
        # Keep the receive contexts: in-flight peer data on this
        # connection must still decrypt until the peer's FIN arrives.
        self.events.emit(Event.CONN_CLOSED, conn_id=conn.conn_id)

    def _send_frame(
        self, conn: TcplsConnection, ttype: int, body: bytes, seq: int,
        stream_id: Optional[int] = None,
    ) -> None:
        """Encrypt one frame under the right context and hand it to TCP.

        ``stream_id`` names the context: required for ``STREAM_DATA``
        (the caller built the body and knows it), the control stream's
        for everything else.
        """
        if stream_id is None:
            if ttype == TType.STREAM_DATA:
                raise ValueError("STREAM_DATA frame sent without its stream id")
            stream_id = CONTROL_STREAM_ID
        cipher = self.contexts.send_context(stream_id, conn.conn_id)
        if cipher is None:
            cipher = self.contexts.send_context(CONTROL_STREAM_ID, conn.conn_id)
            if cipher is None:
                return
        plaintext = framing.encode_frame(ttype, seq, body)
        inner = plaintext + bytes([ttype])
        header = record_header(ContentType.APPLICATION_DATA, len(inner) + 16)
        # seal() routes large records through the keystream lookahead
        # cache (bit-identical to aead.encrypt at this nonce).
        sealed = cipher.seal(inner, header)
        cipher.advance()
        conn.tcp.send(header + sealed)
        conn.health.last_activity = self.sim.now
        self.stats["records_sent"] += 1
        self._obs_records_sent.inc()
        self._obs_record_bytes.observe(len(header) + len(sealed))

    def _send_control(self, ttype: int, body: bytes, seq: int) -> None:
        conns = self._active_conns()
        if not conns:
            return
        primary_like = next((c for c in conns if c.is_primary), conns[0])
        self._send_frame(primary_like, ttype, body, seq, stream_id=CONTROL_STREAM_ID)

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------

    def _on_tcp_data(self, conn: TcplsConnection, data: bytes) -> None:
        conn.health.last_activity = self.sim.now
        conn.decoder.feed(data)
        try:
            for outer_type, body in conn.decoder.raw_records():
                self._on_raw_record(conn, outer_type, body)
        except GuardLimitExceeded:
            # A resource-exhaustion guard fired (stream table,
            # reassembly buffer, plaintext-junk cap, ...): tear the
            # connection down before the attacker-controlled state
            # grows any further.
            self._obs_guard_tripped.inc()
            conn.tcp.abort("resource guard tripped")
            self._on_tcp_failed(conn, "guard_tripped")
        except DecodeError:
            # Malformed bytes that a parser rejected (fail-closed wire
            # armor): count, kill this connection; the session survives
            # on the others.
            self._obs_decode_rejected.inc()
            conn.tcp.abort("malformed record stream")
            self._on_tcp_failed(conn, "malformed record stream")
        except ProtocolViolation:
            # Other protocol violations (e.g. AEAD desync detected at a
            # higher layer): same teardown, separate bookkeeping.
            conn.tcp.abort("malformed record stream")
            self._on_tcp_failed(conn, "malformed record stream")

    def _on_raw_record(self, conn: TcplsConnection, outer_type: int, body: bytes) -> None:
        if conn.state == TcplsConnection.TLS_HANDSHAKE:
            # Hand exactly one record to the TLS driver; completion flips
            # the connection to ACTIVE between records.
            self.tls.receive(record_header(outer_type, len(body)) + body)
            return
        if conn.state == TcplsConnection.JOIN_SENT:
            self._client_join_record(conn, outer_type, body)
            return
        if outer_type != ContentType.APPLICATION_DATA:
            # Plaintext records after establishment: middlebox junk.
            # Tolerate a few (a confused box re-emitting handshake
            # flights), but an endless stream of them is an injection
            # attack burning our cycles — fail the connection.
            conn.plaintext_junk += 1
            if conn.plaintext_junk > self.context.max_plaintext_records:
                raise GuardLimitExceeded(
                    f"conn {conn.conn_id}: {conn.plaintext_junk} plaintext "
                    f"records after establishment"
                )
            return
        opened = self.contexts.open_record(conn.conn_id, body)
        if opened is None:
            # Forgery attempt — counted in the context manager.  A short
            # run is survivable (an injected record never advanced our
            # nonce), but a long run means the genuine record stream no
            # longer authenticates (tampering desynchronized the AEAD
            # sequence): fail the connection so replay/reconnect can act
            # instead of stalling silently.
            conn.auth_failure_run += 1
            if conn.auth_failure_run >= self.context.auth_failure_tolerance:
                self._obs_guard_tripped.inc()
                conn.tcp.abort("record authentication failures")
                self._on_tcp_failed(conn, "record_auth_failures")
            return
        conn.auth_failure_run = 0
        stream_id, ttype, plaintext = opened
        conn.records_received += 1
        self.stats["records_received"] += 1
        self._obs_records_received.inc()
        if ttype == TType.HANDSHAKE:
            self.tls.process_handshake_bytes(plaintext)
            self._maybe_collect_ticket()
            return
        if ttype == TType.ALERT:
            self.session_closed = True
            self.events.emit(Event.SESSION_CLOSED)
            return
        if ttype == TType.APPDATA:
            if self.on_early_data:
                self.on_early_data(plaintext)
            return
        frame = framing.decode_frame(ttype, plaintext)
        if not self.tracker.accept(frame.seq):
            return  # duplicate after a failover replay
        self._dispatch_frame(conn, frame)
        if frame.seq:
            self._unacked_since_flush += 1
            if self._unacked_since_flush >= self.context.ack_every:
                self._flush_ack()
            else:
                self._arm_ack_flush()

    def _client_join_record(self, conn: TcplsConnection, outer_type: int, body: bytes) -> None:
        if outer_type != ContentType.APPLICATION_DATA:
            return
        opened = self.contexts.open_record(conn.conn_id, body)
        if opened is None:
            return
        stream_id, ttype, plaintext = opened
        if ttype != TType.JOIN_ACK:
            return
        span = self._join_spans.pop(conn.conn_id, None)
        if span is not None:
            span.end()
        self._activate_joined(conn)
        self.events.emit(Event.JOIN, conn_id=conn.conn_id)
        self._pump()

    def _maybe_collect_ticket(self) -> None:
        self.events.emit(Event.TICKET)

    # ------------------------------------------------------------------
    # Frame dispatch
    # ------------------------------------------------------------------

    def _dispatch_frame(self, conn: TcplsConnection, frame: framing.Frame) -> None:
        handler = {
            TType.STREAM_DATA: self._on_stream_data_frame,
            TType.STREAM_OPEN: self._on_stream_open_frame,
            TType.STREAM_CLOSE: self._on_stream_close_frame,
            TType.ACK: self._on_ack_frame,
            TType.TCP_OPTION: self._on_tcp_option_frame,
            TType.NEW_COOKIES: self._on_new_cookies_frame,
            TType.PLUGIN: self._on_plugin_frame,
            TType.PROBE: self._on_probe_frame,
            TType.PROBE_REPORT: self._on_probe_report_frame,
            TType.SESSION_CLOSE: self._on_session_close_frame,
            TType.ADDRESS_ADVERT: self._on_address_advert_frame,
            TType.ADDRESS_REMOVE: self._on_address_remove_frame,
            TType.WINDOW_UPDATE: self._on_window_update_frame,
            TType.PING: lambda c, f: self._flush_ack(),
        }.get(frame.ttype)
        if handler is None:
            raise UnknownType(f"unknown TCPLS frame type {frame.ttype:#04x}")
        handler(conn, frame)

    def _on_stream_data_frame(self, conn: TcplsConnection, frame: framing.Frame) -> None:
        stream_id, offset, fin, data = framing.decode_stream_data(frame.body)
        stream = self._ensure_stream(stream_id, conn)
        if data and offset + len(data) > max(
            stream.granted_limit, DEFAULT_STREAM_WINDOW
        ):
            # Flow-control violation: the peer wrote past every grant we
            # ever issued (tolerating the protocol-default initial
            # window, so asymmetric configurations converge rather than
            # abort).  A compliant sender can never hit this.
            self._obs_flow_violations.inc()
            raise GuardLimitExceeded(
                f"stream {stream_id} data past flow-control limit "
                f"{stream.granted_limit}"
            )
        if (
            stream.reassembly_bytes() + len(data)
            > self.context.max_reassembly_bytes
        ):
            # A peer striping far past an unfilled hole is making us
            # hoard memory; cap the out-of-order buffer.
            raise GuardLimitExceeded(
                f"stream {stream_id} reassembly buffer over "
                f"{self.context.max_reassembly_bytes}B"
            )
        if (
            self.session_memory_bytes() + len(data)
            > self.context.max_session_memory
        ):
            # Session-wide budget: many streams each under their own cap
            # can still sum to a hoard; fail the connection, not the
            # process.
            raise GuardLimitExceeded(
                f"session buffered memory over "
                f"{self.context.max_session_memory}B"
            )
        self.delivery_log.append((self.sim.now, conn.conn_id, len(data)))
        conn.bytes_delivered += len(data)
        self._obs_stream_bytes.inc(len(data))
        stream.on_segment(offset, data, fin)
        self._obs_memory.set(self.session_memory_bytes())

    def _on_stream_open_frame(self, conn: TcplsConnection, frame: framing.Frame) -> None:
        stream_id, pinned_conn = framing.decode_stream_open(frame.body)
        self._ensure_stream(stream_id, conn)
        self.events.emit(Event.STREAM_OPENED, stream_id=stream_id, conn_id=conn.conn_id)

    def _ensure_stream(self, stream_id: int, conn: TcplsConnection) -> TcplsStream:
        stream = self.streams.get(stream_id)
        if stream is None:
            if len(self.streams) >= self.context.max_streams:
                # Implicit stream creation is peer-controlled: cap it so
                # a hostile sender can't grow the table without bound.
                raise GuardLimitExceeded(
                    f"stream table full ({self.context.max_streams}); "
                    f"refusing stream {stream_id}"
                )
            stream = TcplsStream(
                stream_id, conn.conn_id,
                recv_window=self.context.stream_recv_window,
            )
            stream.attached = True
            self._wire_stream(stream)
            self.streams[stream_id] = stream
            for active in self._active_conns():
                self.contexts.install(stream_id, active.conn_id, active.token)
        return stream

    def _on_stream_close_frame(self, conn: TcplsConnection, frame: framing.Frame) -> None:
        stream_id, final_offset = framing.decode_stream_close(frame.body)
        stream = self.streams.get(stream_id)
        if stream is None:
            return
        stream.on_segment(final_offset, b"", True)
        self._flush_ack()

    def _on_ack_frame(self, conn: TcplsConnection, frame: framing.Frame) -> None:
        cumulative, _conn_id = framing.decode_ack(frame.body)
        self.stats["acks_received"] += 1
        self._obs_acks_received.inc()
        self.replay.on_ack(cumulative)

    def _on_tcp_option_frame(self, conn: TcplsConnection, frame: framing.Frame) -> None:
        kind, target_conn, option_body = framing.decode_tcp_option(frame.body)
        option = decode_single_option(kind, option_body)
        # Apply the option to the requested connection — the simulated
        # equivalent of "the server extracts it and performs the required
        # setsockopt" (paper section 3.1).
        targets = (
            [self.connections[target_conn]]
            if target_conn in self.connections
            else self._active_conns()
        )
        if isinstance(option, UserTimeout):
            # The option arrives over the secure channel but its value is
            # still peer-chosen: clamp to local policy before it becomes a
            # timer, or a peer could pin connection state for ~23 days.
            for target in targets:
                target.tcp.set_user_timeout(
                    min(option.timeout_seconds(), MAX_USER_TIMEOUT_SECONDS)
                )
        self.events.emit(
            Event.TCP_OPTION_RECEIVED,
            kind=kind,
            option=option,
            conn_id=conn.conn_id,
        )

    def _on_new_cookies_frame(self, conn: TcplsConnection, frame: framing.Frame) -> None:
        self.cookie_purse.deposit(framing.decode_new_cookies(frame.body))

    def _on_plugin_frame(self, conn: TcplsConnection, frame: framing.Frame) -> None:
        target, bytecode = framing.decode_plugin(frame.body)
        from repro.core.plugins.runtime import install_plugin

        result = install_plugin(self, target, bytecode)
        self.events.emit(
            Event.PLUGIN_INSTALLED, target=target, ok=result, conn_id=conn.conn_id
        )

    def _on_probe_frame(self, conn: TcplsConnection, frame: framing.Frame) -> None:
        from repro.core.middlebox_detect import compare_syns

        probe_conn_id, syn_as_sent = framing.decode_probe(frame.body)
        differences = compare_syns(syn_as_sent, conn.tcp.received_syn_bytes)
        reply = framing.encode_probe_report(probe_conn_id, differences)
        seq = self.replay.next_seq()
        self.replay.store(seq, TType.PROBE_REPORT, CONTROL_STREAM_ID, reply)
        self._send_frame(conn, TType.PROBE_REPORT, reply, seq, stream_id=CONTROL_STREAM_ID)

    def _on_probe_report_frame(self, conn: TcplsConnection, frame: framing.Frame) -> None:
        probe_conn_id, differences = framing.decode_probe_report(frame.body)
        self._probe_reports[probe_conn_id] = differences
        self.events.emit(
            Event.PROBE_REPORT, conn_id=probe_conn_id, differences=differences
        )

    def _on_session_close_frame(self, conn: TcplsConnection, frame: framing.Frame) -> None:
        self.session_closed = True
        self._flush_ack()
        self.events.emit(Event.SESSION_CLOSED)
        for c in self._active_conns():
            if c.tcp.state in ("ESTABLISHED", "CLOSE_WAIT"):
                c.tcp.close()
            c.state = TcplsConnection.CLOSED

    def _on_address_advert_frame(self, conn: TcplsConnection, frame: framing.Frame) -> None:
        v4, v6 = framing.decode_address_advert(frame.body)
        self.peer_v4_addresses.extend(a for a in v4 if a not in self.peer_v4_addresses)
        self.peer_v6_addresses.extend(a for a in v6 if a not in self.peer_v6_addresses)
        self.events.emit(Event.ADDRESS_ADVERTISED, v4=v4, v6=v6)

    def _on_address_remove_frame(self, conn: TcplsConnection, frame: framing.Frame) -> None:
        v4, v6 = framing.decode_address_advert(frame.body)
        self.peer_v4_addresses = [a for a in self.peer_v4_addresses if a not in v4]
        self.peer_v6_addresses = [a for a in self.peer_v6_addresses if a not in v6]
        self.events.emit(Event.ADDRESS_REMOVED, v4=v4, v6=v6)

    # ------------------------------------------------------------------
    # Delivery to the application
    # ------------------------------------------------------------------

    def _deliver_stream_data(self, stream: TcplsStream, data: bytes) -> None:
        if self.on_stream_data:
            # Callback delivery is consumption: the application took the
            # bytes, so credit flows back to the peer immediately.
            self.on_stream_data(stream.stream_id, data)
            self._maybe_grant_credit(stream)
        else:
            # Pull mode: park delivered bytes in the bounded app-read
            # queue.  No credit is returned until ``recv_data()`` drains
            # it — a reader that stops reading stalls the sender at one
            # receive window instead of growing this buffer forever.
            stream.read_buffer.extend(data)

    # -- flow control ------------------------------------------------------

    def _maybe_grant_credit(self, stream: TcplsStream) -> None:
        """Send a WINDOW_UPDATE once a quarter-window of credit freed.

        Grants are batched (a grant per delivered record would double
        control traffic) and cumulative: the new absolute limit is
        consumed-offset + window, and the receiver of the grant takes
        the max with what it already holds, so replays are harmless.
        """
        if not self.handshake_complete or self.session_closed:
            return
        window = self.context.stream_recv_window
        new_limit = stream.consumed_offset() + window
        if new_limit - stream.granted_limit < max(1, window // 4):
            return
        stream.granted_limit = new_limit
        seq = self.replay.next_seq()
        body = framing.encode_window_update(stream.stream_id, new_limit)
        self.replay.store(seq, TType.WINDOW_UPDATE, stream.stream_id, body)
        self._send_control(TType.WINDOW_UPDATE, body, seq)
        self._obs_flow_updates_sent.inc()

    def _on_window_update_frame(
        self, conn: TcplsConnection, frame: framing.Frame
    ) -> None:
        stream_id, max_offset = framing.decode_window_update(frame.body)
        stream = self.streams.get(stream_id)
        self._obs_flow_updates_received.inc()
        if stream is None:
            return
        if max_offset <= stream.send_limit:
            return  # stale or replayed grant: credit never shrinks
        stream.send_limit = max_offset
        stream.stalled = False
        self._pump()
        self._maybe_writable(stream)

    def _on_stream_fin(self, stream: TcplsStream) -> None:
        if self.on_stream_fin:
            self.on_stream_fin(stream.stream_id)
        self._maybe_session_close()

    def _maybe_session_close(self) -> None:
        """Closing the last stream closes the session (section 2.1)."""
        if not self._closing or self.session_closed:
            return
        if any(s.has_pending_data() for s in self.streams.values()):
            return
        if not all(s.fin_sent for s in self.streams.values()):
            return
        self.session_closed = True
        seq = self.replay.next_seq()
        body = framing.encode_session_close(max(self.streams, default=0))
        self.replay.store(seq, TType.SESSION_CLOSE, CONTROL_STREAM_ID, body)
        self._send_control(TType.SESSION_CLOSE, body, seq)
        self.events.emit(Event.SESSION_CLOSED)
        for conn in self._active_conns():
            conn.tcp.close()
            conn.state = TcplsConnection.CLOSED

    # ------------------------------------------------------------------
    # ACKs
    # ------------------------------------------------------------------

    def _arm_ack_flush(self) -> None:
        if self._ack_flush_event is not None:
            return
        self._ack_flush_event = self.sim.schedule(
            self.context.ack_flush_delay, self._flush_ack
        )

    def _flush_ack(self) -> None:
        if self._ack_flush_event is not None:
            self._ack_flush_event.cancel()
            self._ack_flush_event = None
        if self._unacked_since_flush == 0 or not self.handshake_complete:
            return
        self._unacked_since_flush = 0
        conns = self._active_conns()
        if not conns:
            return
        body = framing.encode_ack(self.tracker.cumulative, conns[0].conn_id)
        self._send_frame(conns[0], TType.ACK, body, seq=0, stream_id=CONTROL_STREAM_ID)
        self.stats["acks_sent"] += 1
        self._obs_acks_sent.inc()

    # ------------------------------------------------------------------
    # TCP option channel / plugins / probes (sender side)
    # ------------------------------------------------------------------

    def send_tcp_option(self, option, apply_to_conn: int = 0) -> None:
        """Ship a TCP option over the secure channel (section 3.1)."""
        body = framing.encode_tcp_option(option.kind, option.body(), apply_to_conn)
        seq = self.replay.next_seq()
        self.replay.store(seq, TType.TCP_OPTION, CONTROL_STREAM_ID, body)
        self._send_control(TType.TCP_OPTION, body, seq)

    def send_plugin(self, target: str, bytecode: bytes) -> None:
        """Ship bytecode to upgrade the peer (section 3 item iii)."""
        body = framing.encode_plugin(target, bytecode)
        seq = self.replay.next_seq()
        self.replay.store(seq, TType.PLUGIN, CONTROL_STREAM_ID, body)
        self._send_control(TType.PLUGIN, body, seq)

    def send_middlebox_probe(self, conn_id: Optional[int] = None) -> None:
        """SYN-echo probe (section 4.5): send our SYN as we sent it."""
        if not self.handshake_complete:
            raise RuntimeError("middlebox probe requires a completed handshake")
        conn = self._resolve_conn(conn_id)
        body = framing.encode_probe(conn.conn_id, conn.tcp.sent_syn_bytes)
        seq = self.replay.next_seq()
        self.replay.store(seq, TType.PROBE, CONTROL_STREAM_ID, body)
        self._send_frame(conn, TType.PROBE, body, seq, stream_id=CONTROL_STREAM_ID)

    def probe_report(self, conn_id: int) -> Optional[List[str]]:
        return self._probe_reports.get(conn_id)

    def advertise_addresses(self, v4=(), v6=()) -> None:
        """Reliable ADD_ADDR over the encrypted channel (section 4.1):
        unlike Multipath TCP's option, delivery is guaranteed (the TLS
        records are part of the bytestream) and middleboxes cannot read
        or forge it."""
        body = framing.encode_address_advert(list(v4), list(v6))
        seq = self.replay.next_seq()
        self.replay.store(seq, TType.ADDRESS_ADVERT, CONTROL_STREAM_ID, body)
        self._send_control(TType.ADDRESS_ADVERT, body, seq)

    def withdraw_addresses(self, v4=(), v6=()) -> None:
        """Reliable RM_ADDR (section 4.1)."""
        body = framing.encode_address_advert(list(v4), list(v6))
        seq = self.replay.next_seq()
        self.replay.store(seq, TType.ADDRESS_REMOVE, CONTROL_STREAM_ID, body)
        self._send_control(TType.ADDRESS_REMOVE, body, seq)

    def update_keys(self) -> None:
        """Roll the primary control channel's sending keys (RFC 8446
        7.2) — per-stream contexts are unaffected (independent keys)."""
        if not self.handshake_complete:
            raise RuntimeError("key update before handshake completion")
        self.tls.send_key_update(request_peer=False)

    def ping(self) -> None:
        """Unsequenced PING: solicits an immediate TCPLS ACK."""
        self._send_control(TType.PING, b"", 0)

    def send_new_cookies(self, count: int = 4) -> None:
        """Server: replenish the client's JOIN cookies."""
        cookies = self.cookie_jar.mint(count)
        body = framing.encode_new_cookies(cookies)
        seq = self.replay.next_seq()
        self.replay.store(seq, TType.NEW_COOKIES, CONTROL_STREAM_ID, body)
        self._send_control(TType.NEW_COOKIES, body, seq)

    # ------------------------------------------------------------------
    # Failure handling: failover & migration support
    # ------------------------------------------------------------------

    def _on_tcp_established(self, conn: TcplsConnection) -> None:
        self.events.emit(Event.CONN_ESTABLISHED, conn_id=conn.conn_id)

    def _on_tcp_peer_close(self, conn: TcplsConnection) -> None:
        if self.session_closed:
            conn.state = TcplsConnection.CLOSED
            if conn.tcp.state == "CLOSE_WAIT":
                conn.tcp.close()
            self.events.emit(Event.CONN_CLOSED, conn_id=conn.conn_id)
            return
        # A FIN outside session close: treat as the peer retiring this
        # connection (e.g. migration's tcpls_stream_close of the old path).
        # Contexts stay installed: data still in flight on this
        # connection must keep decrypting until the stream drains.
        conn.state = TcplsConnection.CLOSED
        if conn.tcp.state == "CLOSE_WAIT":
            conn.tcp.close()
        self.events.emit(Event.CONN_CLOSED, conn_id=conn.conn_id)
        self._repin_streams_away_from(conn)
        target = best_path(self._active_conns())
        if target is not None:
            # Anything the peer has not TCPLS-acked may have died with
            # the connection; replay it (the receiver deduplicates).
            self._replay_unacked(target)
        self._pump()

    def _on_tcp_failed(self, conn: TcplsConnection, reason: str) -> None:
        if conn.state in (TcplsConnection.FAILED, TcplsConnection.CLOSED):
            return
        was_active = conn.state == TcplsConnection.ACTIVE
        conn.state = TcplsConnection.FAILED
        if self.contexts is not None:
            self.contexts.remove_connection(conn.conn_id)
        self.events.emit(Event.CONN_FAILED, conn_id=conn.conn_id, reason=reason)
        if not self.handshake_complete or self.session_closed:
            return
        self._reassess_degraded(reason)
        # A failing *reconnection attempt* feeds the retry loop, not a
        # fresh failover (the attempt connection was never ACTIVE).
        if self._reconnect is not None and self._reconnect.get("conn") is conn:
            self._retry_after_backoff(reason)
            return
        if not was_active or not self.context.auto_failover:
            return
        self._failover_from(conn)

    def _failover_from(self, failed: TcplsConnection) -> None:
        """Re-establish connectivity and replay unacked frames (2.1).

        With survivors, traffic re-pins onto the healthiest remaining
        path immediately.  With none, the client enters the bounded
        exponential-backoff reconnection loop (``_begin_reconnect``);
        the seed code's single-shot reconnect stalled forever if that
        one attempt was itself lost.
        """
        survivors = self._active_conns()
        if survivors:
            self._repin_streams_away_from(failed)
            target = best_path(survivors) or survivors[0]
            self._transfer_primary(failed, target)
            self._replay_unacked(target)
            self.events.emit(
                Event.FAILOVER, from_conn=failed.conn_id, to_conn=target.conn_id
            )
            self._pump()
        if self.is_server:
            return  # the client drives reconnection
        # Even with survivors carrying the traffic, redial the failed
        # path in the background: failover restores *connectivity*, the
        # reconnect loop restores *redundancy* (single_path -> RECOVERED
        # once the JOIN lands).
        self._begin_reconnect(failed)

    def _repin_streams_away_from(self, gone: TcplsConnection) -> None:
        target = best_path(self._active_conns())
        if target is None:
            return
        for stream in self.streams.values():
            if stream.conn_id == gone.conn_id:
                stream.conn_id = target.conn_id
                if stream.attached:
                    self.contexts.install(
                        stream.stream_id, target.conn_id, target.token
                    )

    # -- degradation bookkeeping ------------------------------------------

    _DEGRADATION_RANK = {None: 0, "single_path": 1, "no_path": 2}

    def _degradation_level(self) -> Optional[str]:
        active = len(self._active_conns())
        if active == 0:
            return "no_path"
        if active == 1 and self._peak_active >= 2:
            return "single_path"
        return None

    def _note_path_active(self) -> None:
        """A connection became usable: update redundancy bookkeeping and
        emit SESSION_RECOVERED if a degradation just healed."""
        self._peak_active = max(self._peak_active, len(self._active_conns()))
        self._reassess_degraded("path_active")
        self._start_health_monitor()

    def _reassess_degraded(self, reason: str) -> None:
        """Emit the app-visible DEGRADED/RECOVERED pair on transitions.

        Levels (ranked): healthy < single_path < no_path.  Worsening
        emits SESSION_DEGRADED, improving emits SESSION_RECOVERED (with
        the level recovered *to* — a reconnect out of ``no_path`` onto
        one path is a recovery even if redundancy is not yet back).
        Only failures move the needle; graceful retirement (migration)
        never calls this.
        """
        if not self.handshake_complete or self.session_closed:
            return
        level = self._degradation_level()
        old = self._degraded_level
        if level == old:
            return
        rank, ranks = self._DEGRADATION_RANK[level], self._DEGRADATION_RANK
        if rank > ranks[old]:
            if old is None:
                self._degraded_since = self.sim.now
            self.events.emit(
                Event.SESSION_DEGRADED, level=level, reason=reason, terminal=False
            )
        else:
            self.events.emit(
                Event.SESSION_RECOVERED,
                level=level,
                downtime=self.sim.now - self._degraded_since,
            )
        self._degraded_level = level

    # -- path health monitor ----------------------------------------------

    def _start_health_monitor(self) -> None:
        if self._health_timer is not None or self.context.health_interval <= 0:
            return
        if self.session_closed:
            return
        self._health_timer = self.sim.schedule(
            self.context.health_interval, self._health_tick
        )

    def _health_tick(self) -> None:
        self._health_timer = None
        if self.session_closed:
            return
        active = self._active_conns()
        for conn in active:
            conn.health.refresh(conn)
            idle = self.sim.now - conn.health.last_activity
            if idle >= self.context.health_idle_ping:
                # Heartbeat: an unsequenced PING keeps TCP's RTT/loss
                # signals fresh on idle paths, so the user timeout can
                # notice a silently dead one.
                self._send_frame(
                    conn, TType.PING, b"", seq=0, stream_id=CONTROL_STREAM_ID
                )
                conn.health.pings_sent += 1
                self._obs_pings.inc()
        # Keep ticking while anything could still need watching; a fully
        # failed session with no reconnection in flight stops the timer
        # (``_note_path_active`` restarts it).
        if active or self._reconnect is not None:
            self._health_timer = self.sim.schedule(
                self.context.health_interval, self._health_tick
            )

    # -- reconnection with backoff ----------------------------------------

    def _begin_reconnect(self, failed: TcplsConnection) -> None:
        if self._reconnect is not None:
            return  # a reconnection is already in flight
        self._reconnect = {
            "failed": failed,
            "dest": str(failed.tcp.remote_addr),
            "port": failed.tcp.remote_port,
            "src": str(failed.tcp.local_addr),
            "attempt": 0,
            "started": self.sim.now,
            "conn": None,
            "handler": None,
            "timer": None,
            "span": self.obs.tracer.span(
                self._obs_component, "reconnect", from_conn=failed.conn_id
            ),
        }
        self._reconnect_attempt()

    def _reconnect_attempt(self) -> None:
        state = self._reconnect
        if state is None or self.session_closed:
            return
        state["timer"] = None
        if state["attempt"] >= self.context.reconnect_max_retries:
            self._abandon_reconnect("retries_exhausted")
            return
        if len(self.cookie_purse) == 0:
            # Surface cookie exhaustion instead of silently abandoning
            # the session (the seed code's bare ``return``).  Checked
            # after the budget so "out of budget" is never misreported
            # as "out of cookies".
            self._obs_cookies_exhausted.inc()
            self._abandon_reconnect("cookies_exhausted")
            return
        state["attempt"] += 1
        self._obs_retries.inc()
        self.events.emit(
            Event.CONN_RETRY,
            attempt=state["attempt"],
            dest=state["dest"],
            max_retries=self.context.reconnect_max_retries,
        )
        new_id = self.connect(state["dest"], state["port"], src=state["src"])
        new_conn = self.connections[new_id]
        state["conn"] = new_conn

        def on_join(conn_id: int, _new=new_conn) -> None:
            if conn_id != _new.conn_id:
                return
            self._finish_reconnect(_new)

        state["handler"] = on_join
        self.events.on(Event.JOIN, on_join)
        self._start_join(new_conn)
        if self.context.join_timeout:
            state["timer"] = self.sim.schedule(
                self.context.join_timeout, self._join_attempt_timeout, new_conn
            )

    def _join_attempt_timeout(self, conn: TcplsConnection) -> None:
        state = self._reconnect
        if state is None or state.get("conn") is not conn:
            return
        if conn.state == TcplsConnection.ACTIVE:
            return
        state["timer"] = None
        conn.tcp.abort("reconnect JOIN timed out")
        # ``abort`` may or may not surface through callbacks; fail the
        # connection explicitly (idempotent) so the retry loop advances.
        self._on_tcp_failed(conn, "join_timeout")

    def _retry_after_backoff(self, reason: str) -> None:
        state = self._reconnect
        if state is None:
            return
        self._detach_attempt(state)
        attempt = max(1, state["attempt"])
        delay = min(
            self.context.reconnect_backoff_base * (2 ** (attempt - 1)),
            self.context.reconnect_backoff_max,
        )
        delay += delay * self.context.reconnect_backoff_jitter * self.rng.random()
        self.obs.tracer.point(
            self._obs_component, "reconnect_backoff",
            attempt=attempt, delay=delay, reason=reason,
        )
        state["timer"] = self.sim.schedule(delay, self._reconnect_attempt)

    def _detach_attempt(self, state: dict) -> None:
        """Disarm the current attempt's timer and one-shot JOIN handler.

        Deregistering here (and in ``_finish_reconnect``) is what keeps
        repeated failovers from accumulating stale on-JOIN handlers that
        re-trigger old replays.
        """
        if state["timer"] is not None:
            state["timer"].cancel()
            state["timer"] = None
        if state["handler"] is not None:
            self.events.off(Event.JOIN, state["handler"])
            state["handler"] = None
        state["conn"] = None

    def _finish_reconnect(self, new_conn: TcplsConnection) -> None:
        state = self._reconnect
        if state is None:
            return
        self._reconnect = None
        self._detach_attempt(state)
        state["span"].end(attempts=state["attempt"], ok=True)
        self._obs_recovered.inc()
        failed = state["failed"]
        self._repin_streams_away_from(failed)
        self._transfer_primary(failed, new_conn)
        self._replay_unacked(new_conn)
        self.events.emit(
            Event.FAILOVER,
            from_conn=failed.conn_id,
            to_conn=new_conn.conn_id,
            attempts=state["attempt"],
        )
        self._pump()
        self._redial_next_failed_path()

    def _transfer_primary(self, failed: TcplsConnection,
                          target: TcplsConnection) -> None:
        """Hand the primary role to the failover target so default
        stream pinning and control traffic never aim at a dead
        connection."""
        if not failed.is_primary or failed is target:
            return
        failed.is_primary = False
        target.is_primary = True
        self.primary = target

    def _redial_next_failed_path(self) -> None:
        """If the session is still short on redundancy, redial the next
        failed path (e.g. the survivor died while its sibling was being
        reconnected).  A path counts as restored when some ACTIVE
        connection shares its (local, remote) address pair."""
        if self.is_server or self._degradation_level() is None:
            return
        restored = {
            (str(conn.tcp.local_addr), str(conn.tcp.remote_addr))
            for conn in self._active_conns()
        }
        stale = [
            conn
            for conn in self.connections.values()
            if conn.state == TcplsConnection.FAILED
            and (str(conn.tcp.local_addr), str(conn.tcp.remote_addr))
            not in restored
        ]
        if stale:
            self._begin_reconnect(stale[-1])

    def _abandon_reconnect(self, reason: str) -> None:
        state = self._reconnect
        self._reconnect = None
        if state is not None:
            self._detach_attempt(state)
            state["span"].end(attempts=state["attempt"], ok=False, reason=reason)
        self._obs_abandoned.inc()
        level = self._degradation_level()
        if level == "no_path":
            # Terminal: recovery gave up and nothing is left.  Emitted
            # even though a DEGRADED event already fired for the level
            # transition — ``terminal`` is the signal callers react to
            # (tear down, alert, re-dial by hand).
            self._degraded_level = "no_path"
            self.events.emit(
                Event.SESSION_DEGRADED, level="no_path", reason=reason,
                terminal=True,
            )
        else:
            # Survivors still carry traffic: redundancy was not restored
            # (the path may be gone for good) but the session lives on at
            # its current level.  Restate the degradation so observers
            # learn the redial gave up; non-terminal, not a transition.
            self.events.emit(
                Event.SESSION_DEGRADED, level=level, reason=reason,
                terminal=False,
            )

    def _replay_unacked(self, conn: TcplsConnection) -> None:
        for seq, ttype, stream_id, body in list(self.replay.unacked_frames()):
            self.stats["frames_replayed"] += 1
            self._obs_frames_replayed.inc()
            # Only STREAM_DATA is sealed under its stream's context.
            context_stream = (
                stream_id if ttype == TType.STREAM_DATA else CONTROL_STREAM_ID
            )
            self._send_frame(conn, ttype, body, seq, stream_id=context_stream)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def describe(self) -> dict:
        return {
            "role": "server" if self.is_server else "client",
            "handshake_complete": self.handshake_complete,
            "connections": [c.describe() for c in self.connections.values()],
            "streams": sorted(self.streams),
            "cookies_left": len(self.cookie_purse),
            "degraded_level": self._degraded_level,
            "reconnecting": self._reconnect is not None,
            "stats": dict(self.stats),
            "forgery_suspects": self.contexts.forgery_suspects if self.contexts else 0,
            "record_sizing": self.sizer.stats(),
        }


class TcplsServer:
    """Accepts TCP connections and routes them to TCPLS sessions."""

    def __init__(
        self,
        context: TcplsContext,
        stack: TcpStack,
        port: int = 443,
        on_session: Optional[Callable[[TcplsSession], None]] = None,
        fast_open: bool = True,
        admission=None,
        on_reject: Optional[Callable] = None,
    ) -> None:
        self.context = context
        self.stack = stack
        self.port = port
        self.on_session = on_session
        # Optional overload protection (repro.overload): an
        # AdmissionController shared across the farm's listeners.  When
        # present it gates every accept (queue cap) and every first
        # record (cost-aware policy + handshake pacer) and tracks
        # admitted sessions against the global memory budget.
        # ``on_reject(decision)`` lets the harness observe refusals and
        # deliver retry coupons.
        self.admission = admission
        self.on_reject = on_reject
        self.sessions: List[TcplsSession] = []
        self._session_seed = context.seed
        self._fast_open = fast_open
        self.crashed = False
        # Connections sniffed but not yet routed to a session — tracked
        # so a crash can vanish them too (their closures die with us).
        # A list, not a set: crash() iterates it, and arrival order is
        # the only deterministic order these objects have.
        self._pending: List[TcpConnection] = []
        # Server-side 0-RTT anti-replay, shared across every session this
        # listener accepts (a per-session register would defeat itself:
        # each replayed flight lands in a *new* session).
        if (
            context.anti_replay is None
            and context.identity is not None
            and context.zero_rtt_anti_replay > 0
        ):
            context.anti_replay = AntiReplayRegister(
                capacity=context.zero_rtt_anti_replay,
                clock=lambda: stack.sim.now,
                window=float(context.ticket_lifetime),
            )
        # Listener-level hardening counters: rejects that happen before
        # any session exists (garbage first flights, JOIN floods).
        self.obs = context.observability or Observability(
            stack.sim, enabled=context.telemetry
        )
        telemetry = self.obs.telemetry
        self._obs_decode_rejected = telemetry.counter(
            obs_keys.COMP_SERVER, obs_keys.DECODE_REJECTED
        )
        self._obs_guard_tripped = telemetry.counter(
            obs_keys.COMP_SERVER, obs_keys.GUARD_TRIPPED
        )
        # Per-peer-address JOIN arrival times (sim clock), for the
        # sliding-window rate limit that throttles cookie guessing.
        self._join_times: Dict[str, List[float]] = {}
        stack.listen(
            port,
            self._on_tcp_connection,
            fast_open=fast_open,
            congestion=context.congestion,
        )

    def _on_tcp_connection(self, tcp: TcpConnection) -> None:
        if self.admission is not None and not self.admission.admit_connection(
            len(self._pending)
        ):
            # Accept queue full: refuse before buffering a single
            # record — the cheapest possible rejection.
            tcp.abort("accept queue full")
            return
        # Buffer until the first record (a ClientHello) is complete, then
        # decide: new session, or JOIN onto an existing one.
        decoder = RecordDecoder()
        sniffed = bytearray()
        done = {"routed": False}
        self._pending.append(tcp)

        def on_first_data(data: bytes) -> None:
            if done["routed"]:
                return
            sniffed.extend(data)
            decoder.feed(data)
            try:
                for outer_type, body in decoder.raw_records():
                    done["routed"] = True
                    if tcp in self._pending:
                        self._pending.remove(tcp)
                    self._route(tcp, outer_type, body, bytes(sniffed))
                    return
            except ProtocolViolation:
                done["routed"] = True
                if tcp in self._pending:
                    self._pending.remove(tcp)
                self._obs_decode_rejected.inc()
                tcp.abort("not a TLS record stream")

        tcp.on_data = on_first_data

    def _route(self, tcp, outer_type: int, body: bytes, all_bytes: bytes) -> None:
        join_info = None
        hello = None
        if outer_type == ContentType.HANDSHAKE:
            try:
                frames = m.parse_handshake_frames(body)
                if frames and frames[0][0] == m.CLIENT_HELLO:
                    hello = m.ClientHello.from_body(frames[0][1])
                    join_info = joinmod.extract_join(hello)
            except DecodeError:
                self._obs_decode_rejected.inc()
                tcp.abort("malformed first record")
                return
        if self.admission is not None:
            decision = self.admission.admit_hello(hello, join_info)
            if not decision.admitted:
                if self.on_reject:
                    self.on_reject(decision)
                tcp.abort(f"overloaded ({decision.reason})")
                return
        if join_info is not None:
            if not self._join_allowed(tcp):
                self._obs_guard_tripped.inc()
                tcp.abort("JOIN rate limit")
                return
            connection_id, cookie = join_info
            session = self._find_session(connection_id)
            if session is None:
                self._obs_decode_rejected.inc()
                tcp.abort("JOIN for unknown session")
                return
            session.adopt_joined_connection(tcp, cookie, b"")
            return
        # New session: hand over all buffered bytes (the ClientHello).
        session_context = self.context
        session = TcplsSession(session_context, self.stack, is_server=True)
        self.sessions.append(session)
        if self.admission is not None:
            self.admission.track(session)
        if self.on_session:
            self.on_session(session)
        session.accept_primary(tcp, all_bytes)

    def _join_allowed(self, tcp) -> bool:
        """Sliding-window JOIN rate limit, keyed by peer address.

        A keyless attacker can always open TCP connections and send
        JOIN-shaped ClientHellos; without a cap each attempt costs us a
        cookie comparison and (on success-shaped garbage) session
        lookups.  Bound the attempts per ``join_rate_window`` seconds so
        cookie guessing is throttled while legitimate multipath joins
        (a handful per session lifetime) are untouched.
        """
        peer = str(getattr(tcp, "remote_addr", None) or "?")
        now = self.stack.sim.now
        window = self.context.join_rate_window
        times = [
            t for t in self._join_times.get(peer, []) if now - t < window
        ]
        if len(times) >= self.context.join_rate_limit:
            self._join_times[peer] = times
            return False
        times.append(now)
        self._join_times[peer] = times
        return True

    def _find_session(self, connection_id: bytes) -> Optional[TcplsSession]:
        for session in self.sessions:
            if session.connection_id == connection_id:
                return session
        return None

    # -- crash / restart ---------------------------------------------------

    def crash(self) -> None:
        """The server process dies: listener gone, every session gone.

        In-flight sessions vanish silently (no alerts, no FINs — see
        ``TcplsSession.crash``); the TCP stack itself survives, so the
        next segment a client sends to a dead connection draws an RST,
        and new SYNs are refused until ``relisten``.  Idempotent.
        """
        if self.crashed:
            return
        self.crashed = True
        for session in self.sessions:
            if not session.session_closed:
                session.crash()
        self.sessions.clear()
        self._join_times.clear()
        for tcp in list(self._pending):
            tcp.vanish()
        self._pending.clear()
        self.stack.unlisten(self.port)

    def relisten(self) -> None:
        """Come back after a crash: bind the listener again.

        Session state is *not* restored — that is the point of the
        crash model.  Resumption state survives only as much as the
        ticket key does: restart with the same ``context.ticket_key``
        and clients resume with their cached tickets; rotate it first
        and every presented ticket is declined into a full handshake.
        """
        if not self.crashed:
            return
        self.crashed = False
        self.stack.listen(
            self.port,
            self._on_tcp_connection,
            fast_open=self._fast_open,
            congestion=self.context.congestion,
        )

    def reap_closed(self) -> int:
        """Drop closed sessions from the routing list; returns the count.

        ``sessions`` otherwise grows for the listener's whole lifetime,
        which a server-farm churn run turns into both a leak and an
        ever-slower linear ``_find_session`` JOIN lookup.  Closed
        sessions can never be joined again (their connection id died
        with them), so reaping is invisible to the protocol.
        """
        alive = [s for s in self.sessions if not s.session_closed]
        reaped = len(self.sessions) - len(alive)
        if reaped:
            self.sessions = alive
        return reaped
