"""Per-host TCP instance: demultiplexing, listeners, port allocation.

One ``TcpStack`` attaches to one ``Host`` (registering itself as the
handler for IP protocol 6) and owns every TCP connection terminating on
that host — across *all* of the host's addresses, which matters for
TCPLS multihoming: the same stack serves the v4 and the v6 interface.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Optional, Tuple

from repro.netsim.node import Host, Interface
from repro.netsim.packet import Datagram, IPAddress, PROTO_TCP, parse_address
from repro.tcp.connection import TcpConnection
from repro.tcp.fastopen import FastOpenManager
from repro.tcp.options import FastOpenCookie, find_option
from repro.tcp.segment import Flags, TcpSegment
from repro.utils.errors import DecodeError, ProtocolViolation

_EPHEMERAL_BASE = 49152


class Listener:
    """A passive socket bound to a local port."""

    def __init__(
        self,
        stack: "TcpStack",
        port: int,
        on_connection: Callable[[TcpConnection], None],
        fast_open: bool = False,
        congestion: str = "reno",
    ) -> None:
        self.stack = stack
        self.port = port
        self.on_connection = on_connection
        self.fast_open = fast_open
        self.congestion = congestion
        self.connections_accepted = 0

    def handle_syn(
        self, datagram: Datagram, segment: TcpSegment, raw_payload: bytes
    ) -> None:
        conn = TcpConnection(
            stack=self.stack,
            local_addr=datagram.dst,
            local_port=self.port,
            remote_addr=datagram.src,
            remote_port=segment.src_port,
            mss=self.stack.mss,
            congestion=self.congestion,
        )
        tfo_ok = False
        tfo_option = find_option(segment.options, FastOpenCookie)
        if self.fast_open and tfo_option is not None and tfo_option.cookie:
            tfo_ok = self.stack.fastopen.validate_cookie(
                datagram.src, tfo_option.cookie
            )
        self.stack.register(conn)
        self.connections_accepted += 1
        # Hand the connection to the application *before* the handshake
        # completes so it can attach callbacks (and receive TFO data).
        # The state is already SYN_RCVD so the app may queue data, which
        # flows once the handshake finishes.
        conn.state = "SYN_RCVD"
        self.on_connection(conn)
        conn.open_passive(segment, raw_payload, tfo_cookie_ok=tfo_ok)


class TcpStack:
    """TCP for one simulated host."""

    def __init__(
        self,
        host: Host,
        seed: int = 0,
        mss: int = 1400,
        msl: float = 1.0,
        congestion: str = "reno",
    ) -> None:
        self.host = host
        self.sim = host.sim
        self.mss = mss
        self.msl = msl
        self.default_congestion = congestion
        self.fastopen = FastOpenManager()
        self._rng = random.Random(seed)
        # Demux map keyed on integer address values (see ``_demux_key``)
        # instead of ``ipaddress`` objects: hashing an IPv4Address builds
        # a hex string per call in CPython, and this is looked up once
        # per received segment.
        self._connections: Dict[Tuple, TcpConnection] = {}
        self._listeners: Dict[int, Listener] = {}
        self._next_ephemeral = _EPHEMERAL_BASE
        self.segments_dropped_checksum = 0
        self.segments_dropped_malformed = 0
        self.rsts_sent = 0
        host.register_protocol(PROTO_TCP, self._on_datagram)

    # -- public API ---------------------------------------------------------

    def listen(
        self,
        port: int,
        on_connection: Callable[[TcpConnection], None],
        fast_open: bool = False,
        congestion: Optional[str] = None,
    ) -> Listener:
        if port in self._listeners:
            raise ValueError(f"port {port} already has a listener")
        listener = Listener(
            self,
            port,
            on_connection,
            fast_open=fast_open,
            congestion=congestion or self.default_congestion,
        )
        self._listeners[port] = listener
        return listener

    def unlisten(self, port: int) -> None:
        """Drop the listener on ``port`` (no-op when absent).

        Models the listening socket dying with its process: later SYNs
        to the port draw an RST (connection refused) from
        ``_on_datagram``'s fall-through, which is exactly what makes a
        crashed server's clients fail fast instead of timing out.
        """
        self._listeners.pop(port, None)

    def connect(
        self,
        remote_addr,
        remote_port: int,
        local_addr=None,
        local_port: Optional[int] = None,
        congestion: Optional[str] = None,
        fast_open: bool = False,
        fast_open_data: bytes = b"",
    ) -> TcpConnection:
        """Active open.  ``local_addr`` selects the source interface —
        the hook TCPLS's explicit multipath uses to pin a connection to a
        path (``tcpls_connect(src, dest)``)."""
        remote_addr = _as_address(remote_addr)
        if local_addr is None:
            local_addr = self._pick_source_address(remote_addr)
        else:
            local_addr = _as_address(local_addr)
            if not self.host.owns_address(local_addr):
                raise ValueError(f"{self.host.name} does not own {local_addr}")
        if local_port is None:
            local_port = self._allocate_port()
        conn = TcpConnection(
            stack=self,
            local_addr=local_addr,
            local_port=local_port,
            remote_addr=remote_addr,
            remote_port=remote_port,
            mss=self.mss,
            congestion=congestion or self.default_congestion,
        )
        self.register(conn)
        cookie: Optional[bytes] = None
        if fast_open:
            cookie = self.fastopen.cookie_for(remote_addr)
            if cookie is None:
                cookie = b""  # request one
        conn.open_active(fast_open_cookie=cookie, fast_open_data=fast_open_data)
        return conn

    # -- plumbing -----------------------------------------------------------------

    def allocate_iss(self) -> int:
        return self._rng.randrange(1 << 32)

    def register(self, conn: TcpConnection) -> None:
        key = _demux_key(conn)
        if key in self._connections:
            raise ValueError(f"connection {conn.four_tuple} already exists")
        self._connections[key] = conn

    def forget(self, conn: TcpConnection) -> None:
        self._connections.pop(_demux_key(conn), None)

    def send_raw(self, conn: TcpConnection, segment: TcpSegment) -> None:
        """Hand ``segment`` to IP in its carried form
        (``TcpSegment.to_datagram``)."""
        self.host.send_ip(segment.to_datagram(conn.local_addr, conn.remote_addr))

    def send_raw_batch(self, conn: TcpConnection, segments) -> None:
        """Burst form of :meth:`send_raw` (the ``netsim.vectorq`` path).

        All segments belong to one connection, so they share a
        destination and the whole burst reaches the outgoing link as a
        single batched enqueue.
        """
        src, dst = conn.local_addr, conn.remote_addr
        self.host.send_ip_batch([segment.to_datagram(src, dst) for segment in segments])

    def connection_count(self) -> int:
        return len(self._connections)

    def _allocate_port(self) -> int:
        port = self._next_ephemeral
        self._next_ephemeral += 1
        if self._next_ephemeral > 65535:
            self._next_ephemeral = _EPHEMERAL_BASE
        return port

    def _pick_source_address(self, remote_addr: IPAddress):
        out = self.host.lookup_route(remote_addr)
        if out is None:
            raise ValueError(f"no route from {self.host.name} to {remote_addr}")
        address = out.address_for_family(remote_addr.version)
        if address is None:
            raise ValueError(
                f"interface {out.name} has no v{remote_addr.version} address"
            )
        return address

    # -- input ------------------------------------------------------------------------

    def _on_datagram(self, datagram: Datagram, interface: Interface) -> None:
        src = datagram.src
        dst = datagram.dst
        # The sender's segment stands in for a parse only while the
        # datagram's bytes were never built and the segment is as sent,
        # or while the datagram holds the very objects it was serialized
        # for (then ``from_bytes`` would verify and return its equal);
        # else parse.
        segment = datagram.segment
        payload = datagram.__dict__.get("payload")
        if payload is None:
            carried = "_as_sent" not in segment.__dict__
        else:
            wire = None if segment is None else segment._wire
            carried = wire is not None and (
                wire[2] is payload and wire[0] is src and wire[1] is dst
            )
        if not carried:
            payload = datagram.payload
            try:
                segment = TcpSegment.from_bytes(payload, src, dst, verify_checksum=True)
            except DecodeError:
                # Structurally invalid segment (truncated header, lying
                # option length, bad offset): fail closed and drop it.
                self.segments_dropped_malformed += 1
                return
            except ProtocolViolation:
                self.segments_dropped_checksum += 1
                return
        conn = self._connections.get(
            (dst.__class__, dst._ip, segment.dst_port, src._ip, segment.src_port)
        )
        if conn is not None:
            conn.on_segment(segment)
            return
        listener = self._listeners.get(segment.dst_port)
        if listener is not None and segment.is_syn and not segment.is_ack:
            listener.handle_syn(datagram, segment, datagram.payload)
            return
        self._send_reset_for(datagram, segment)

    def _send_reset_for(self, datagram: Datagram, segment: TcpSegment) -> None:
        """RFC 793: RST for segments to nonexistent connections."""
        if segment.is_rst:
            return
        self.rsts_sent += 1
        if segment.is_ack:
            rst = TcpSegment(
                src_port=segment.dst_port,
                dst_port=segment.src_port,
                seq=segment.ack,
                flags=Flags.RST,
            )
        else:
            rst = TcpSegment(
                src_port=segment.dst_port,
                dst_port=segment.src_port,
                seq=0,
                ack=(segment.seq + segment.sequence_space()) & 0xFFFFFFFF,
                flags=Flags.RST | Flags.ACK,
            )
        self.host.send_ip(
            Datagram(
                src=datagram.dst,
                dst=datagram.src,
                protocol=PROTO_TCP,
                payload=rst.to_bytes(datagram.dst, datagram.src),
            )
        )


def _as_address(value) -> IPAddress:
    return parse_address(value) if isinstance(value, str) else value


def _demux_key(conn: TcpConnection) -> Tuple:
    """Integer-valued four-tuple matching ``_on_datagram``'s lookup; the
    address class keeps v4 and v6 keys distinct."""
    local = conn.local_addr
    return (
        local.__class__,
        local._ip,
        conn.local_port,
        conn.remote_addr._ip,
        conn.remote_port,
    )
