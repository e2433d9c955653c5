"""The TCPLS session: the object behind every ``tcpls_*`` API call.

A ``TcplsSession`` gathers one TLS 1.3 session and one or more TCP
connections (like a Multipath TCP connection gathers subflows — paper
section 2.1) and carries the datapath of sections 2-3 on top of them:

- per-(stream, connection) cryptographic contexts with receiver-side
  trial decryption;
- session sequence numbers, TCPLS ACKs, and the replay of unacked
  frames onto another connection;
- JOIN of additional connections using CONNID + one-time cookies;
- the secure TCP-option channel (User Timeout working end-to-end);
- congestion-control plugins delivered as bytecode;
- 0-RTT resumption over TCP Fast Open;
- SYN-echo middlebox detection.

What the session *does* when a TCP connection dies — fail over, redial
with a cookie, give up — is ``repro.core.recovery``; what it does with
each control frame it receives is ``repro.core.frames``, and the
per-stream credit rules are ``TcplsStream``'s.  Its configuration
(``context.TcplsContext``), its per-TCP-connection record
(``connection.TcplsConnection``) and its listener
(``server.TcplsServer``) live in their own modules and are re-exported
here.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Tuple

from repro.core import framing, join as joinmod
from repro.core.connection import TcplsConnection
from repro.core.context import TcplsContext
from repro.core.contexts import CONTROL_STREAM_ID, ContextManager
from repro.core.cookies import CookieJar, CookiePurse, mint_connection_id
from repro.core.events import Event, EventDispatcher
from repro.core.frames import HANDLERS, MAX_SESSION_MEMORY
from repro.core.framing import TType
from repro.core.health import best_path
from repro.core.record_sizing import RecordSizer
from repro.core.recovery import ReconnectState, Recovery
from repro.core.reliability import ReceiveTracker, ReplayBuffer
from repro.core.scheduler import make_scheduler
from repro.core.streams import TcplsStream
from repro.obs import Observability
from repro.obs import keys as obs_keys
from repro.obs.tcpinfo import sample_tcp
from repro.obs.tracing import scrub_attrs
from repro.tcp.connection import TcpConnection
from repro.tcp.stack import TcpStack
from repro.tls import messages as m
from repro.tls.record import ContentType, record_header
from repro.tls.session import TlsConfig, TlsSession
from repro.utils.errors import (
    DecodeError,
    GuardLimitExceeded,
    ProtocolViolation,
    UnknownType,
)

# Per-process session counter mixed into each session's RNG: one server
# context accepts many sessions, and each must mint a distinct CONNID and
# cookie set (deterministic given creation order, which the simulator
# fixes).
_session_counter = [0]

__all__ = ["TcplsConnection", "TcplsContext", "TcplsServer", "TcplsSession"]

# How many *consecutive* record-authentication failures a connection
# tolerates before it is failed over (why: ``_on_raw_record``); this
# small, it bounds how long a desynchronized connection stalls.
AUTH_FAILURE_TOLERANCE = 3

# Session tickets a server issues after a full handshake, and the
# lifetime sealed into each (enforced on both ends; it also sizes the
# listener's 0-RTT anti-replay window).
SEND_TICKETS = 2
TICKET_LIFETIME = 7200

# TCPLS ACK pacing: acknowledge every ACK_EVERY sequenced frames, or
# ACK_FLUSH_DELAY seconds after the first unacknowledged one.
ACK_EVERY = 16
ACK_FLUSH_DELAY = 0.025

# The post-establishment plaintext junk (injected non-APPDATA records) a
# connection tolerates before its guard trips; the receiver's other
# resource guards are in ``frames``.
MAX_PLAINTEXT_RECORDS = 32


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
        self.sizer = RecordSizer(match_cwnd=context.cwnd_match_records)
        self.scheduler = make_scheduler(context.multipath_mode)
        self.events = EventDispatcher(clock=lambda: self.sim.now)

        # Identity / join state.
        self.connection_id = b""
        self.cookie_jar = CookieJar(self.rng)
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
            # Fail-closed wire hardening: rejected decodes and tripped
            # resource guards (the fuzz/attacker tests read these).
            "decode_rejected": 0,
            "guard_tripped": 0,
            # Per-stream flow control: stalls on exhausted credit, grants
            # each way, and peers writing past their grant.
            "flow_stalls": 0,
            "flow_window_updates_sent": 0,
            "flow_window_updates_received": 0,
            "flow_violations": 0,
        }
        self._unacked_since_flush = 0
        self._ack_flush_event = None
        self._closing = False
        self.session_closed = False

        # Observability: one hub per session unless the context shares
        # one.  The histogram is looked up once here so the hot path is
        # a single ``observe``.
        self.obs = context.observability or Observability(self.sim)
        self._obs_component = obs_keys.session_component(is_server)
        self._obs_record_bytes = self.obs.telemetry.histogram(
            self._obs_component, obs_keys.RECORD_BYTES
        )
        # What happens when a connection dies: failover, redial, give up.
        self.recovery = Recovery(self)
        if self.obs.tracer.enabled:
            self.events.observer = self._sample_tcp_on

    # ------------------------------------------------------------------
    # Event registration
    # ------------------------------------------------------------------

    def on(self, event: str, handler: Callable) -> None:
        self.events.on(event, handler)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    # Session state transitions worth a TCP_INFO snapshot of each live
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

    def _sample_tcp_on(self, event: str, kwargs: dict) -> None:
        """EventDispatcher tap: on the transitions the paper's figures
        care about, record the TCP state of each connection whose TCP is
        not CLOSED, and of the one the event names (a failing connection
        is sampled once, at its own CONN_FAILED), as a ``tcp`` tracer
        point labelled with the transition."""
        if event in self._SNAPSHOT_EVENTS:
            point = self.obs.tracer.point
            named = kwargs.get("conn_id")
            for conn in self.connections.values():
                if conn.tcp.state != "CLOSED" or conn.conn_id == named:
                    point(obs_keys.COMP_TCP, event, conn_id=conn.conn_id,
                          **sample_tcp(conn.tcp))

    def metrics(self) -> dict:
        """``describe()`` (counts included, as ``stats``) plus everything
        the observability hub recorded (histograms, TCP snapshots) and
        the session's own events, which hold its lifecycle."""
        return {
            **self.describe(),
            **self.obs.snapshot(),
            "events": [
                {"t": t, "event": event, **scrub_attrs(kwargs)}
                for t, event, kwargs in self.events.timeline
            ],
        }

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

    def _new_tls(self, config: TlsConfig, transport_write: Callable) -> None:
        """Create the TLS driver and feed its rejections into the
        session's observability.

        The driver fails closed on its own (alert + teardown); the two
        hooks only count those events in ``stats["decode_rejected"]`` /
        ``stats["guard_tripped"]`` alongside the TCPLS-layer ones.
        """
        self.tls = tls = TlsSession(
            config, is_server=self.is_server, transport_write=transport_write
        )
        tls.on_decode_rejected = lambda _why: self._count("decode_rejected")
        tls.on_guard_tripped = lambda _why: self._count("guard_tripped")

    def _count(self, key: str) -> None:
        self.stats[key] += 1

    def _client_tls_config(self) -> TlsConfig:
        # ClientHello extensions: the TCPLS marker, plus a retry coupon
        # when a refusing server handed one out (cheap-class admission
        # on the redial).
        extensions = [(joinmod.EXT_TCPLS, joinmod.build_tcpls_marker())]
        if self.context.retry_coupon:
            extensions.append((m.EXT_TCPLS_COUPON, self.context.retry_coupon))
        return TlsConfig(
            trust_store=self.context.trust_store,
            server_name=self.context.server_name,
            ticket_store=self.context.ticket_store,
            extra_client_extensions=extensions,
            rng=random.Random(self.rng.randrange(1 << 30)),
            clock=lambda: self.sim.now,
        )

    def _begin_primary_handshake(self, conn: TcplsConnection) -> None:
        """Mark ``conn`` primary and route the TLS driver's completion
        to it (``self.tls`` exists by now)."""
        self.primary = conn
        self.tls.on_handshake_complete = lambda: self._on_tls_complete(conn)

    @staticmethod
    def _when_established(conn: TcplsConnection, fn: Callable[[], None]) -> None:
        """Run ``fn`` now if ``conn``'s TCP is up, else right after
        whatever ``on_established`` already does."""
        if conn.tcp.state == "ESTABLISHED":
            fn()
            return
        previous = conn.tcp.on_established

        def on_established():
            if previous:
                previous()
            fn()

        conn.tcp.on_established = on_established

    def _start_tls_client(self, conn: TcplsConnection, early_data: bytes) -> None:
        self._new_tls(self._client_tls_config(), conn.tcp.send)
        self._begin_primary_handshake(conn)

        def start():
            conn.state = TcplsConnection.TLS_HANDSHAKE
            self.tls.start_handshake(early_data=early_data)

        self._when_established(conn, start)

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

        self._new_tls(self._client_tls_config(), write)
        self.tls.start_handshake(early_data=early_data)
        syn_payload = bytes(first_flight)

        conn_id = self.connect(
            dest, port, fast_open=True, fast_open_data=syn_payload
        )
        conn = self.connections[conn_id]
        conn.state = TcplsConnection.TLS_HANDSHAKE
        self._begin_primary_handshake(conn)
        hold[0] = conn.tcp.send  # later flights go straight to TCP
        return conn_id

    # -- server side (driven by TcplsServer) ------------------------------

    def accept_primary(self, tcp: TcpConnection, initial_bytes: bytes) -> None:
        conn = self._register_tcp(tcp)
        conn.state = TcplsConnection.TLS_HANDSHAKE

        self.connection_id = mint_connection_id(self.rng)
        cookies = self.cookie_jar.mint()
        params = joinmod.TcplsServerParams(
            connection_id=self.connection_id,
            cookies=cookies,
            v4_addresses=[str(a) for a in self.stack.host.addresses(version=4)],
            v6_addresses=[str(a) for a in self.stack.host.addresses(version=6)],
        )
        tls_config = TlsConfig(
            identity=self.context.identity,
            ticket_key=self.context.ticket_key,
            send_tickets=SEND_TICKETS,
            ticket_lifetime=TICKET_LIFETIME,
            anti_replay=self.context.anti_replay,
            extra_encrypted_extensions=[(joinmod.EXT_TCPLS, params.to_bytes())],
            rng=random.Random(self.rng.randrange(1 << 30)),
            clock=lambda: self.sim.now,
        )
        self._new_tls(tls_config, tcp.send)
        self._begin_primary_handshake(conn)
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
        self.recovery.path_active()
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

        def send_join():
            conn.state = TcplsConnection.JOIN_SENT
            hello = joinmod.build_join_client_hello(
                self.connection_id, cookie, self.rng
            )
            conn.tcp.send(record_header(ContentType.HANDSHAKE, len(hello)) + hello)
            # Derive this connection's contexts from the session + cookie.
            self.contexts.install(CONTROL_STREAM_ID, conn.conn_id, cookie)

        self._when_established(conn, send_join)

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
        self.send_new_cookies()
        if leftover:
            self._on_tcp_data(conn, leftover)
        return True

    def _activate_joined(self, conn: TcplsConnection) -> None:
        conn.state = TcplsConnection.ACTIVE
        # Multipath striping and migration can use it immediately.
        self._install_contexts(
            [stream for stream in self.streams.values() if stream.attached], [conn]
        )
        self.recovery.path_active()

    def _install_contexts(
        self, streams: List[TcplsStream], conns: List[TcplsConnection]
    ) -> None:
        """The one place that keeps every attached stream keyed on every
        active connection: new streams on all active connections, or all
        attached streams on a new connection."""
        for stream in streams:
            for conn in conns:
                self.contexts.install(stream.stream_id, conn.conn_id, conn.token)

    # ------------------------------------------------------------------
    # Streams
    # ------------------------------------------------------------------

    def stream_new(self, conn_id: Optional[int] = None) -> int:
        conn = self._resolve_conn(conn_id)
        stream_id = self._next_stream_id
        self._next_stream_id += 2
        self._add_stream(stream_id, conn)
        return stream_id

    def _add_stream(self, stream_id: int, conn: TcplsConnection) -> TcplsStream:
        stream = self.streams[stream_id] = TcplsStream(
            stream_id, conn.conn_id,
            recv_window=self.context.stream_recv_window,
        )
        stream.on_data = lambda data: self._deliver_stream_data(stream, data)
        stream.on_fin = lambda: self._on_stream_fin(stream)
        return stream

    def streams_attach(self) -> None:
        """Announce every unattached stream to the peer (STREAM_OPEN)."""
        if not self.handshake_complete:
            raise RuntimeError("streams_attach before handshake completion")
        for stream in self.streams.values():
            if stream.attached:
                continue
            stream.attached = True
            self._install_contexts([stream], self._active_conns())
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
                self._send_frame(conn, TType.STREAM_OPEN, body, seq)
            self.events.emit(
                Event.STREAM_ATTACHED,
                stream_id=stream.stream_id,
                conn_id=stream.conn_id,
            )

    def send(self, stream_id: int, data: bytes) -> int:
        stream = self.streams[stream_id]
        if self.session_memory_bytes() + len(data) > MAX_SESSION_MEMORY:
            # Fail closed toward the application: queueing past the
            # session budget would let one slow peer pin unbounded local
            # memory.  The caller sees backpressure as an exception
            # instead of the farm seeing an OOM.
            self.stats["guard_tripped"] += 1
            raise GuardLimitExceeded(
                f"session memory budget ({MAX_SESSION_MEMORY}B) exhausted; "
                f"refusing {len(data)}B write to stream {stream_id}"
            )
        stream.queue(data)
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
        self.recovery.cancel()
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
                was_stalled = stream.stalled
                if stream.credit_blocked():
                    if not was_stalled:
                        self.stats["flow_stalls"] += 1
                    continue
                conn = self.scheduler.pick(stream, conns)
                if conn is None:
                    continue
                chunk_size = self.sizer.chunk_size(conn)
                taken = stream.take_chunk(chunk_size)
                if taken is None:
                    continue
                offset, data, fin = taken
                self._send_stream_chunk(stream, conn, offset, data, fin)
                progress = True
        self._maybe_session_close()

    def _send_stream_chunk(
        self,
        stream: TcplsStream,
        conn: TcplsConnection,
        offset: int,
        data: bytes,
        fin: bool,
    ) -> None:
        if data:
            body = framing.encode_stream_data(
                stream.stream_id, offset, data, fin=False
            )
            self.sizer.account(len(data), conn)
            self._send_reliable(
                TType.STREAM_DATA, body, stream_id=stream.stream_id, conn=conn
            )
        if fin:
            close_body = framing.encode_stream_close(
                stream.stream_id, offset + len(data)
            )
            self._send_reliable(
                TType.STREAM_CLOSE, close_body, stream_id=stream.stream_id,
                conn=conn,
            )
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

        ``stream_id`` is the stream the frame is about: required for
        ``STREAM_DATA`` (the caller built the body and knows it), whose
        records are sealed under their stream's context; every other
        frame is sealed under the control stream's.
        """
        if ttype != TType.STREAM_DATA:
            stream_id = CONTROL_STREAM_ID
        elif stream_id is None:
            raise ValueError("STREAM_DATA frame sent without its stream id")
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
        self.stats["records_sent"] += 1
        self._obs_record_bytes.observe(len(header) + len(sealed))

    def _send_control(self, ttype: int, body: bytes, seq: int) -> None:
        conns = self._active_conns()
        if not conns:
            return
        conn = self.primary if self.primary in conns else conns[0]
        self._send_frame(conn, ttype, body, seq)

    def _send_reliable(
        self, ttype: int, body: bytes, *,
        stream_id: int = CONTROL_STREAM_ID,
        conn: Optional[TcplsConnection] = None,
    ) -> None:
        """Sequence a frame, keep it until the peer's TCPLS ACK covers
        it, and send it — on ``conn``, or on the control path without
        one.  ``stream_id`` is the stream the frame is about."""
        seq = self.replay.next_seq()
        self.replay.store(seq, ttype, stream_id, body)
        if conn is None:
            self._send_control(ttype, body, seq)
        else:
            self._send_frame(conn, ttype, body, seq, stream_id=stream_id)

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------

    def _on_tcp_data(self, conn: TcplsConnection, data: bytes) -> None:
        conn.decoder.feed(data)
        try:
            for outer_type, body in conn.decoder.raw_records():
                self._on_raw_record(conn, outer_type, body)
        except GuardLimitExceeded:
            # A resource-exhaustion guard fired (stream table,
            # reassembly buffer, plaintext-junk cap, ...): tear the
            # connection down before the attacker-controlled state
            # grows any further.
            self.stats["guard_tripped"] += 1
            self._fail_connection(conn, "guard_tripped", "resource guard tripped")
        except DecodeError:
            # Malformed bytes that a parser rejected (fail-closed wire
            # armor): count, kill this connection; the session survives
            # on the others.
            self.stats["decode_rejected"] += 1
            self._fail_connection(conn, "malformed record stream")
        except ProtocolViolation:
            # Other protocol violations (e.g. AEAD desync detected at a
            # higher layer): same teardown, separate bookkeeping.
            self._fail_connection(conn, "malformed record stream")

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
            if conn.plaintext_junk > MAX_PLAINTEXT_RECORDS:
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
            if conn.auth_failure_run >= AUTH_FAILURE_TOLERANCE:
                self.stats["guard_tripped"] += 1
                self._fail_connection(
                    conn, "record_auth_failures", "record authentication failures"
                )
            return
        conn.auth_failure_run = 0
        stream_id, ttype, plaintext = opened
        conn.records_received += 1
        self.stats["records_received"] += 1
        if ttype == TType.HANDSHAKE:
            self.tls.process_handshake_bytes(plaintext)
            self.events.emit(Event.TICKET)
            return
        if ttype == TType.ALERT:
            self._end_session(close_connections=False)
            return
        if ttype == TType.APPDATA:
            if self.on_early_data:
                self.on_early_data(plaintext)
            return
        frame = framing.decode_frame(ttype, plaintext)
        if not self.tracker.accept(frame.seq):
            return  # duplicate after a failover replay
        try:
            handler = HANDLERS[frame.ttype]
        except KeyError:
            raise UnknownType(
                f"unknown TCPLS frame type {frame.ttype:#04x}"
            ) from None
        handler(self, conn, frame)
        if frame.seq:
            self._unacked_since_flush += 1
            if self._unacked_since_flush >= ACK_EVERY:
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
        self._activate_joined(conn)
        self.events.emit(Event.JOIN, conn_id=conn.conn_id)
        self.recovery.joined(conn)
        self._pump()

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
        """Send the WINDOW_UPDATE ``stream.grant`` names, if one is due."""
        if not self.handshake_complete or self.session_closed:
            return
        new_limit = stream.grant(self.context.stream_recv_window)
        if new_limit is None:
            return
        body = framing.encode_window_update(stream.stream_id, new_limit)
        self._send_reliable(TType.WINDOW_UPDATE, body, stream_id=stream.stream_id)
        self.stats["flow_window_updates_sent"] += 1

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
        self._end_session(lambda: self._send_reliable(
            TType.SESSION_CLOSE,
            framing.encode_session_close(max(self.streams, default=0)),
        ))

    def _end_session(
        self,
        last_frame: Optional[Callable[[], None]] = None,
        close_connections: bool = True,
    ) -> None:
        """The session is over: mark it closed, put ``last_frame`` on the
        wire (our SESSION_CLOSE, or the ACK of the peer's), tell the
        application, then close every active connection — unless a TLS
        alert ended it."""
        self.session_closed = True
        if last_frame is not None:
            last_frame()
        self.events.emit(Event.SESSION_CLOSED)
        if close_connections:
            for conn in self._active_conns():
                conn.tcp.close()
                conn.state = TcplsConnection.CLOSED

    # ------------------------------------------------------------------
    # ACKs
    # ------------------------------------------------------------------

    def _arm_ack_flush(self) -> None:
        if self._ack_flush_event is not None:
            return
        self._ack_flush_event = self.sim.schedule(ACK_FLUSH_DELAY, self._flush_ack)

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
        self._send_frame(conns[0], TType.ACK, body, seq=0)
        self.stats["acks_sent"] += 1

    # ------------------------------------------------------------------
    # TCP option channel / plugins / probes (sender side)
    # ------------------------------------------------------------------

    def send_tcp_option(self, option, apply_to_conn: int = 0) -> None:
        """Ship a TCP option over the secure channel (section 3.1)."""
        body = framing.encode_tcp_option(option.kind, option.body(), apply_to_conn)
        self._send_reliable(TType.TCP_OPTION, body)

    def send_plugin(self, target: str, bytecode: bytes) -> None:
        """Ship bytecode to upgrade the peer (section 3 item iii)."""
        self._send_reliable(TType.PLUGIN, framing.encode_plugin(target, bytecode))

    def send_middlebox_probe(self, conn_id: Optional[int] = None) -> None:
        """SYN-echo probe (section 4.5): send our SYN as we sent it."""
        if not self.handshake_complete:
            raise RuntimeError("middlebox probe requires a completed handshake")
        conn = self._resolve_conn(conn_id)
        body = framing.encode_probe(conn.conn_id, conn.tcp.sent_syn_bytes)
        self._send_reliable(TType.PROBE, body, conn=conn)

    def advertise_addresses(self, v4=(), v6=()) -> None:
        """Reliable ADD_ADDR over the encrypted channel (section 4.1):
        unlike Multipath TCP's option, delivery is guaranteed (the TLS
        records are part of the bytestream) and middleboxes cannot read
        or forge it."""
        body = framing.encode_address_advert(list(v4), list(v6))
        self._send_reliable(TType.ADDRESS_ADVERT, body)

    def withdraw_addresses(self, v4=(), v6=()) -> None:
        """Reliable RM_ADDR (section 4.1)."""
        body = framing.encode_address_advert(list(v4), list(v6))
        self._send_reliable(TType.ADDRESS_REMOVE, body)

    def update_keys(self) -> None:
        """Roll the primary control channel's sending keys (RFC 8446
        7.2) — per-stream contexts are unaffected (independent keys)."""
        if not self.handshake_complete:
            raise RuntimeError("key update before handshake completion")
        self.tls.send_key_update(request_peer=False)

    def ping(self) -> None:
        """Unsequenced PING: solicits an immediate TCPLS ACK."""
        self._send_control(TType.PING, b"", 0)

    def send_new_cookies(self, count: Optional[int] = None) -> None:
        """Server: replenish the client's JOIN cookies (``COOKIE_BATCH``
        of them by default)."""
        cookies = self.cookie_jar.mint(count)
        self._send_reliable(TType.NEW_COOKIES, framing.encode_new_cookies(cookies))

    # ------------------------------------------------------------------
    # Connection loss: what the datapath does; the policy is ``recovery``
    # ------------------------------------------------------------------

    def _on_tcp_established(self, conn: TcplsConnection) -> None:
        self.events.emit(Event.CONN_ESTABLISHED, conn_id=conn.conn_id)

    def _on_tcp_peer_close(self, conn: TcplsConnection) -> None:
        session_closed = self.session_closed  # as of the FIN, not of a handler
        conn.state = TcplsConnection.CLOSED
        if conn.tcp.state == "CLOSE_WAIT":
            conn.tcp.close()
        self.events.emit(Event.CONN_CLOSED, conn_id=conn.conn_id)
        if session_closed:
            return
        # A FIN outside session close: treat as the peer retiring this
        # connection (e.g. migration's tcpls_stream_close of the old path).
        # Contexts stay installed: data still in flight on this
        # connection must keep decrypting until the stream drains.
        # Not ``_take_over``: a retirement is no FAILOVER and moves no
        # primary.
        self._repin_streams_away_from(conn)
        target = best_path(self._active_conns())
        if target is not None:
            # Anything the peer has not TCPLS-acked may have died with
            # the connection; replay it (the receiver deduplicates).
            self._replay_unacked(target)
        self._pump()

    def _fail_connection(
        self, conn: TcplsConnection, reason: str, abort_reason: Optional[str] = None
    ) -> None:
        """Kill ``conn`` from our side and run the failure path."""
        conn.tcp.abort(abort_reason or reason)
        # ``abort`` may or may not surface through callbacks; fail the
        # connection explicitly (idempotent).
        self._on_tcp_failed(conn, reason)

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
        self.recovery.conn_failed(conn, reason, was_active)

    def _take_over(
        self, failed: TcplsConnection, target: TcplsConnection, **failover_attrs
    ) -> None:
        """``target`` takes over from ``failed``: streams re-pin, the
        primary role moves, unacked frames are replayed (paper 2.1)."""
        self._repin_streams_away_from(failed)
        if failed is self.primary:
            # Default stream pinning and control traffic must never aim
            # at a dead connection.
            self.primary = target
        self._replay_unacked(target)
        self.events.emit(
            Event.FAILOVER, from_conn=failed.conn_id, to_conn=target.conn_id,
            **failover_attrs,
        )
        self._pump()

    def _repin_streams_away_from(self, gone: TcplsConnection) -> None:
        """Pin ``gone``'s streams to the healthiest active connection,
        where ``_install_contexts`` has already keyed them."""
        target = best_path(self._active_conns())
        if target is None:
            return
        for stream in self.streams.values():
            if stream.conn_id == gone.conn_id:
                stream.conn_id = target.conn_id

    def _replay_unacked(self, conn: TcplsConnection) -> None:
        for seq, ttype, stream_id, body in list(self.replay.unacked_frames()):
            self.stats["frames_replayed"] += 1
            self._send_frame(conn, ttype, body, seq, stream_id=stream_id)

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
            "memory_bytes": self.session_memory_bytes(),
            "degraded_level": self.recovery.degraded_level,
            "reconnecting": self.recovery.state is not ReconnectState.IDLE,
            "stats": dict(self.stats),
            "forgery_suspects": self.contexts.forgery_suspects if self.contexts else 0,
            "record_sizing": self.sizer.stats(),
        }


from repro.core.server import TcplsServer  # noqa: E402  (needs TcplsSession)
