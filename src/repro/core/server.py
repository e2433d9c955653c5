"""``TcplsServer``: the listener in front of the server-side sessions.

Demultiplexes incoming TCP connections on a listening port into new
sessions (ClientHello) or JOINs onto existing ones, through the
session's public API only.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.core import join as joinmod
from repro.core.context import TcplsContext
from repro.core.session import TICKET_LIFETIME, TcplsSession
from repro.tcp.connection import TcpConnection
from repro.tcp.stack import TcpStack
from repro.tls import messages as m
from repro.tls.record import ContentType, RecordDecoder
from repro.tls.replay import AntiReplayRegister
from repro.utils.errors import DecodeError, ProtocolViolation

# Entries in the bounded 0-RTT strike register a listener builds for
# itself when its context does not bring a shared one.
ZERO_RTT_ANTI_REPLAY = 4096

# JOIN rate limit: at most JOIN_RATE_LIMIT JOIN attempts per peer
# address in any sliding JOIN_RATE_WINDOW seconds.
JOIN_RATE_LIMIT = 8
JOIN_RATE_WINDOW = 1.0


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
        if context.anti_replay is None and context.identity is not None:
            context.anti_replay = AntiReplayRegister(
                capacity=ZERO_RTT_ANTI_REPLAY,
                clock=lambda: stack.sim.now,
                window=float(TICKET_LIFETIME),
            )
        # Listener-level hardening counts: rejects that happen before
        # any session exists (garbage first flights, JOIN floods).
        self.stats = {"decode_rejected": 0, "guard_tripped": 0}
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
                self.stats["decode_rejected"] += 1
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
                self.stats["decode_rejected"] += 1
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
                self.stats["guard_tripped"] += 1
                tcp.abort("JOIN rate limit")
                return
            connection_id, cookie = join_info
            session = self._find_session(connection_id)
            if session is None:
                self.stats["decode_rejected"] += 1
                tcp.abort("JOIN for unknown session")
                return
            session.adopt_joined_connection(tcp, cookie, b"")
            return
        # New session: hand over all buffered bytes (the ClientHello).
        session = TcplsSession(self.context, self.stack, is_server=True)
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
        lookups.  Bound the attempts per ``JOIN_RATE_WINDOW`` seconds so
        cookie guessing is throttled while legitimate multipath joins
        (a handful per session lifetime) are untouched.
        """
        peer = str(getattr(tcp, "remote_addr", None) or "?")
        now = self.stack.sim.now
        times = [
            t for t in self._join_times.get(peer, []) if now - t < JOIN_RATE_WINDOW
        ]
        if len(times) >= JOIN_RATE_LIMIT:
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
        with them), so reaping is invisible to the protocol.  The JOIN
        rate limit's per-peer stamps go the same way once a peer's
        newest one has left the window: such an entry can no longer
        change a rate-limit decision.
        """
        alive = [s for s in self.sessions if not s.session_closed]
        reaped = len(self.sessions) - len(alive)
        if reaped:
            self.sessions = alive
        now = self.stack.sim.now
        self._join_times = {
            peer: times
            for peer, times in self._join_times.items()
            if times and now - times[-1] < JOIN_RATE_WINDOW
        }
        return reaped
