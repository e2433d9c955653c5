"""Mini-QUIC endpoints: connection machinery over simulated UDP.

One packet-number space, three key epochs, ACK-based loss recovery with
packet-threshold + PTO, NewReno congestion control, streams with
independent delivery, 0-RTT, and client-driven connection migration with
server path validation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.streams import TcplsStream
from repro.netsim.udp import UdpStack
from repro.quic import packet as qp
from repro.tcp.congestion import NewReno
from repro.tcp.rto import RtoEstimator
from repro.tls.certificates import Identity, TrustStore
from repro.tls.session import SessionTicketStore, TlsConfig, TlsSession
from repro.utils.errors import CryptoError, DecodeError, ProtocolViolation

_PACKET_THRESHOLD = 3  # reordering threshold for loss detection
_MAX_ACK_RANGES = 8

# Per-process endpoint counter mixed into each endpoint's RNG so that two
# connections built from one config still get distinct connection IDs
# (deterministic given creation order, which the simulator fixes;
# ``repro.analysis.reset_process_globals`` rewinds it between runs).
_endpoint_counter = [0]


@dataclass
class QuicConfig:
    identity: Optional[Identity] = None
    trust_store: Optional[TrustStore] = None
    server_name: str = ""
    ticket_store: Optional[SessionTicketStore] = None
    ticket_key: bytes = b"\x00" * 32
    congestion: str = "reno"
    seed: int = 0


@dataclass
class _SentPacket:
    packet_number: int
    frames: list
    send_time: float
    size: int
    ack_eliciting: bool
    epoch: int


class _QuicEndpointBase:
    """State and machinery shared by client and server connections."""

    def __init__(self, udp: UdpStack, config: QuicConfig, is_server: bool) -> None:
        self.udp = udp
        self.sim = udp.sim
        self.config = config
        self.is_server = is_server
        _endpoint_counter[0] += 1
        self.rng = random.Random(
            (config.seed, _endpoint_counter[0], is_server).__hash__() & 0x7FFFFFFF
        )

        self.scid = bytes(self.rng.randrange(256) for _ in range(8))
        self.dcid = b""  # peer's source connection id once known
        self.local_port = 0
        self.peer_addr = None
        self.peer_port = 0
        self.local_addr_override: Optional[str] = None

        self.tls: Optional[TlsSession] = None
        self.handshake_complete = False
        self.closed = False

        # Epoch keys: epoch -> (send, recv) EpochKeys.
        self.keys: Dict[int, Tuple[qp.EpochKeys, qp.EpochKeys]] = {}
        self._undecryptable: List[Tuple] = []

        # Crypto stream (carries the TLS byte stream).
        self._crypto_send_offset = 0
        self._crypto_out_queue: List[qp.CryptoFrame] = []
        self._crypto_recv = TcplsStream(0, 0)
        self._crypto_recv.on_data = lambda data: self.tls.receive(data)

        # Streams.
        self.streams: Dict[int, TcplsStream] = {}
        self._next_stream_id = 0 if is_server else 1
        self.on_stream_data: Optional[Callable[[int, bytes], None]] = None
        self.on_stream_fin: Optional[Callable[[int], None]] = None
        self.on_early_data: Optional[Callable[[bytes], None]] = None
        self.on_handshake_complete: Optional[Callable[[], None]] = None

        # Reliability.
        self._next_pn = 0
        self._sent: Dict[int, _SentPacket] = {}
        self._largest_acked = -1
        self._received_pns: set = set()
        self._ack_pending = 0
        self._ack_event = None
        self._pto_event = None
        self._resend_frames: List = []
        self.cc = NewReno(qp.MAX_DATAGRAM - 100)
        self.rto = RtoEstimator(min_rto=0.1)
        self._in_recovery_until = -1

        # Path validation (migration).
        self._path_challenge_out: Optional[bytes] = None
        self.validated_paths: set = set()

        self.stats = {
            "packets_sent": 0,
            "packets_received": 0,
            "packets_lost": 0,
            "bytes_sent": 0,
            "acks_sent": 0,
        }
        self.delivery_log: List[Tuple[float, int]] = []

    # ------------------------------------------------------------------
    # Streams API
    # ------------------------------------------------------------------

    def create_stream(self) -> int:
        stream_id = self._next_stream_id
        self._next_stream_id += 2
        self._make_stream(stream_id)
        return stream_id

    def _make_stream(self, stream_id: int) -> TcplsStream:
        stream = self.streams.get(stream_id)
        if stream is None:
            stream = TcplsStream(stream_id, 0)
            stream.attached = True
            stream.on_data = lambda data, sid=stream_id: self._deliver(sid, data)
            stream.on_fin = lambda sid=stream_id: (
                self.on_stream_fin and self.on_stream_fin(sid)
            )
            self.streams[stream_id] = stream
        return stream

    def _deliver(self, stream_id: int, data: bytes) -> None:
        self.delivery_log.append((self.sim.now, len(data)))
        if self.on_stream_data:
            self.on_stream_data(stream_id, data)

    def send(self, stream_id: int, data: bytes) -> int:
        self.streams[stream_id].queue(data)
        self._pump()
        return len(data)

    def close(self, reason: str = "") -> None:
        if self.closed:
            return
        self.closed = True
        epoch = qp.TYPE_APP if qp.TYPE_APP in self.keys else qp.TYPE_INITIAL
        self._send_packet(epoch, [qp.ConnectionCloseFrame(reason=reason)])

    # ------------------------------------------------------------------
    # TLS plumbing
    # ------------------------------------------------------------------

    def _crypto_write(self, data: bytes) -> None:
        """TLS output becomes CRYPTO frames."""
        self._crypto_out_queue.append(
            qp.CryptoFrame(offset=self._crypto_send_offset, data=data)
        )
        self._crypto_send_offset += len(data)
        self._pump()

    def _install_app_keys(self) -> None:
        client_secret = self.tls.keys.client_application_traffic
        server_secret = self.tls.keys.server_application_traffic
        send_secret = server_secret if self.is_server else client_secret
        recv_secret = client_secret if self.is_server else server_secret
        self.keys[qp.TYPE_APP] = (
            qp.EpochKeys(send_secret), qp.EpochKeys(recv_secret)
        )

    def _install_early_keys(self) -> None:
        secret = qp.early_secret(self.tls.keys.early_secret)
        keys = qp.EpochKeys(secret)
        if self.is_server:
            self.keys[qp.TYPE_EARLY] = (keys, keys)
        else:
            self.keys[qp.TYPE_EARLY] = (keys, keys)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    def _current_data_epoch(self) -> Optional[int]:
        if qp.TYPE_APP in self.keys and self.handshake_complete:
            return qp.TYPE_APP
        if qp.TYPE_EARLY in self.keys and not self.is_server:
            return qp.TYPE_EARLY
        return None

    def _pump(self) -> None:
        if self.closed or self.peer_addr is None:
            return
        # 1) Crypto frames ride the INITIAL epoch (pre-completion) or APP.
        crypto_epoch = (
            qp.TYPE_APP
            if self.handshake_complete and qp.TYPE_APP in self.keys
            else qp.TYPE_INITIAL
        )
        while self._crypto_out_queue:
            frame = self._crypto_out_queue.pop(0)
            # Split oversized crypto frames across packets.
            data = frame.data
            offset = frame.offset
            max_chunk = qp.MAX_DATAGRAM - 100
            while data:
                chunk, data = data[:max_chunk], data[max_chunk:]
                self._send_packet(
                    crypto_epoch, [qp.CryptoFrame(offset=offset, data=chunk)]
                )
                offset += len(chunk)

        # 2) Retransmissions: crypto frames in the crypto epoch, stream
        # frames in the data epoch (which may not exist yet).
        crypto_resend = [
            f for f in self._resend_frames if isinstance(f, qp.CryptoFrame)
        ]
        self._resend_frames = [
            f for f in self._resend_frames if not isinstance(f, qp.CryptoFrame)
        ]
        for frame in crypto_resend:
            self._send_packet(crypto_epoch, [frame])

        epoch = self._current_data_epoch()
        if epoch is None:
            return
        while self._resend_frames:
            if not self._congestion_room():
                return
            frame = self._resend_frames.pop(0)
            self._send_packet(epoch, [frame])

        budget_guard = 0
        while self._congestion_room():
            frames = self._collect_stream_frames()
            if not frames:
                break
            self._send_packet(epoch, frames)
            budget_guard += 1
            if budget_guard > 10000:
                raise RuntimeError("runaway pump")

    def _congestion_room(self) -> bool:
        in_flight = sum(p.size for p in self._sent.values() if p.ack_eliciting)
        return in_flight < self.cc.window()

    def _collect_stream_frames(self) -> List[qp.StreamFrame]:
        budget = qp.MAX_DATAGRAM - 60
        frames: List[qp.StreamFrame] = []
        for stream in self.streams.values():
            if budget < 80:
                break
            if not stream.has_pending_data():
                continue
            taken = stream.take_chunk(budget - 16)
            if taken is None:
                continue
            offset, data, fin = taken
            frames.append(
                qp.StreamFrame(
                    stream_id=stream.stream_id, offset=offset, data=data, fin=fin
                )
            )
            budget -= len(data) + 16
        return frames

    def _send_packet(self, epoch: int, frames: list, with_ack: bool = True) -> None:
        if epoch not in self.keys:
            return
        if with_ack and self._received_pns:
            frames = [self._make_ack_frame()] + frames
            self._ack_pending = 0
        packet_number = self._next_pn
        self._next_pn += 1
        send_keys = self.keys[epoch][0]
        datagram = qp.seal_packet(
            epoch, self.dcid, self.scid, packet_number, frames, send_keys
        )
        ack_eliciting = any(
            getattr(f, "frame_type", None) in qp.ACK_ELICITING for f in frames
        )
        retransmittable = [
            f for f in frames if isinstance(f, (qp.CryptoFrame, qp.StreamFrame))
        ]
        self._sent[packet_number] = _SentPacket(
            packet_number=packet_number,
            frames=retransmittable,
            send_time=self.sim.now,
            size=len(datagram),
            ack_eliciting=ack_eliciting,
            epoch=epoch,
        )
        self.stats["packets_sent"] += 1
        self.stats["bytes_sent"] += len(datagram)
        self.udp.send(
            self.local_port, self.peer_addr, self.peer_port, datagram,
            src=self.local_addr_override,
        )
        if ack_eliciting:
            self._arm_pto()

    def _make_ack_frame(self) -> qp.AckFrame:
        ranges: List[Tuple[int, int]] = []
        for pn in sorted(self._received_pns, reverse=True):
            if ranges and pn == ranges[-1][0] - 1:
                ranges[-1] = (pn, ranges[-1][1])
            else:
                if len(ranges) >= _MAX_ACK_RANGES:
                    break
                ranges.append((pn, pn))
        self.stats["acks_sent"] += 1
        return qp.AckFrame(ranges=ranges)

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------

    def handle_datagram(self, src_addr, src_port: int, data: bytes) -> None:
        if self.closed:
            return
        try:
            packet_type, dcid, scid, pn, header, ciphertext = qp.parse_header(data)
        except DecodeError:
            return
        if packet_type not in self.keys:
            self._undecryptable.append((src_addr, src_port, data))
            return
        recv_keys = self.keys[packet_type][1]
        try:
            frames = qp.open_packet(header, ciphertext, pn, recv_keys)
        except CryptoError:
            return
        self.stats["packets_received"] += 1
        if not self.dcid and scid:
            self.dcid = scid
        self._note_path(src_addr, src_port)
        if pn in self._received_pns:
            return
        self._received_pns.add(pn)
        ack_eliciting = False
        for frame in frames:
            ack_eliciting |= frame.frame_type in qp.ACK_ELICITING
            self._handle_frame(frame, packet_type, src_addr, src_port)
        if ack_eliciting and not self.closed:
            self._ack_pending += 1
            if self._ack_pending >= 2:
                self._flush_ack()
            else:
                self._arm_ack()
        self._pump()

    def _note_path(self, src_addr, src_port: int) -> None:
        """Server-side migration detection: new path needs validation."""
        if not self.is_server:
            return
        path = (src_addr, src_port)
        if (self.peer_addr, self.peer_port) == path:
            return
        if self.peer_addr is None:
            self.peer_addr, self.peer_port = path
            return
        # The client moved: switch and validate the new path.
        self.peer_addr, self.peer_port = path
        token = bytes(self.rng.randrange(256) for _ in range(8))
        self._path_challenge_out = token
        self._send_packet(
            qp.TYPE_APP if qp.TYPE_APP in self.keys else qp.TYPE_INITIAL,
            [qp.PathChallengeFrame(token=token)],
        )

    def _handle_frame(self, frame, packet_type: int, src_addr, src_port: int) -> None:
        if isinstance(frame, qp.AckFrame):
            self._on_ack(frame)
        elif isinstance(frame, qp.CryptoFrame):
            self._crypto_recv.on_segment(frame.offset, frame.data, False)
        elif isinstance(frame, qp.StreamFrame):
            stream = self._make_stream(frame.stream_id)
            if packet_type == qp.TYPE_EARLY and self.is_server:
                if self.on_early_data and frame.data:
                    self.on_early_data(frame.data)
            stream.on_segment(frame.offset, frame.data, frame.fin)
        elif isinstance(frame, qp.PathChallengeFrame):
            self._send_packet(
                qp.TYPE_APP if qp.TYPE_APP in self.keys else qp.TYPE_INITIAL,
                [qp.PathResponseFrame(token=frame.token)],
            )
        elif isinstance(frame, qp.PathResponseFrame):
            if frame.token == self._path_challenge_out:
                self.validated_paths.add((self.peer_addr, self.peer_port))
        elif isinstance(frame, qp.HandshakeDoneFrame):
            pass
        elif isinstance(frame, qp.ConnectionCloseFrame):
            self.closed = True

    # ------------------------------------------------------------------
    # Loss recovery
    # ------------------------------------------------------------------

    def _on_ack(self, frame: qp.AckFrame) -> None:
        acked_bytes = 0
        newly_acked: List[_SentPacket] = []
        for low, high in frame.ranges:
            for pn in list(self._sent):
                if low <= pn <= high:
                    sent = self._sent.pop(pn)
                    newly_acked.append(sent)
                    if sent.ack_eliciting:
                        acked_bytes += sent.size
                    self._largest_acked = max(self._largest_acked, pn)
        if not newly_acked:
            return
        latest = max(newly_acked, key=lambda p: p.packet_number)
        rtt = self.sim.now - latest.send_time
        self.rto.on_measurement(rtt)
        self.cc.observe_rtt(rtt)
        if acked_bytes:
            self.cc.on_ack(acked_bytes, rtt, self.sim.now)
        self._detect_losses()
        self._arm_pto()
        self._pump()

    def _detect_losses(self) -> None:
        lost = [
            sent
            for pn, sent in self._sent.items()
            if pn <= self._largest_acked - _PACKET_THRESHOLD
        ]
        if not lost:
            return
        for sent in lost:
            del self._sent[sent.packet_number]
            self.stats["packets_lost"] += 1
            self._resend_frames.extend(sent.frames)
        # One congestion event per recovery period.
        if lost[0].send_time > self._in_recovery_until:
            flight = sum(p.size for p in self._sent.values() if p.ack_eliciting)
            self.cc.on_loss(flight, self.sim.now)
            self._in_recovery_until = self.sim.now

    def _arm_ack(self) -> None:
        if self._ack_event is not None:
            return
        self._ack_event = self.sim.schedule(0.025, self._flush_ack)

    def _flush_ack(self) -> None:
        if self._ack_event is not None:
            self._ack_event.cancel()
            self._ack_event = None
        if self._ack_pending == 0 or self.closed:
            return
        epoch = (
            qp.TYPE_APP
            if qp.TYPE_APP in self.keys and self.handshake_complete
            else qp.TYPE_INITIAL
        )
        self._send_packet(epoch, [], with_ack=True)

    def _arm_pto(self) -> None:
        if self._pto_event is not None:
            self._pto_event.cancel()
            self._pto_event = None
        if not any(p.ack_eliciting for p in self._sent.values()):
            return
        self._pto_event = self.sim.schedule(
            max(self.rto.rto, 0.1), self._on_pto
        )

    def _on_pto(self) -> None:
        self._pto_event = None
        if self.closed:
            return
        self.rto.on_timeout()
        outstanding = sorted(self._sent.values(), key=lambda p: p.packet_number)
        if not outstanding:
            return
        # Retransmit the oldest packet's data and probe.
        oldest = outstanding[0]
        del self._sent[oldest.packet_number]
        self.stats["packets_lost"] += 1
        self._resend_frames.extend(oldest.frames)
        self.cc.on_timeout(
            sum(p.size for p in self._sent.values() if p.ack_eliciting),
            self.sim.now,
        )
        if not oldest.frames:
            self._send_packet(
                qp.TYPE_APP if self.handshake_complete else qp.TYPE_INITIAL,
                [qp.PingFrame()],
            )
        self._pump()
        self._arm_pto()


class QuicClient(_QuicEndpointBase):
    """Client connection: connect, optionally with 0-RTT early data."""

    def __init__(
        self,
        udp: UdpStack,
        dest: str,
        dest_port: int,
        config: QuicConfig,
        early_data: bytes = b"",
    ) -> None:
        super().__init__(udp, config, is_server=False)
        from repro.netsim.packet import parse_address

        self.peer_addr = parse_address(dest)
        self.peer_port = dest_port
        self.local_port = udp.bind(0, self.handle_datagram)

        # Initial keys from our chosen destination connection id.
        initial_dcid = bytes(self.rng.randrange(256) for _ in range(8))
        self.dcid = initial_dcid
        client_secret, server_secret = qp.initial_secrets(initial_dcid)
        self.keys[qp.TYPE_INITIAL] = (
            qp.EpochKeys(client_secret), qp.EpochKeys(server_secret)
        )

        tls_config = TlsConfig(
            trust_store=config.trust_store,
            server_name=config.server_name,
            ticket_store=config.ticket_store,
            rng=random.Random(config.seed + 7),
        )
        self.tls = TlsSession(tls_config, is_server=False, transport_write=self._crypto_write)
        self.tls.on_handshake_complete = self._on_tls_done
        self.tls.start_handshake(early_data=b"")
        if early_data:
            # 0-RTT: early keys from the PSK-derived early secret.
            if not self.tls.psk_offered:
                raise ProtocolViolation("0-RTT requires a resumption ticket")
            self._install_early_keys()
            stream_id = self.create_stream()
            self.streams[stream_id].queue(early_data)
        self._pump()

    def _on_tls_done(self) -> None:
        self.handshake_complete = True
        self._install_app_keys()
        if self.on_handshake_complete:
            self.on_handshake_complete()
        self._pump()

    def migrate(self, new_local_addr: str) -> None:
        """Connection migration: continue from a different local address."""
        self.local_addr_override = new_local_addr
        self._send_packet(qp.TYPE_APP, [qp.PingFrame()])


class QuicServerConnection(_QuicEndpointBase):
    """One accepted server-side connection."""

    def __init__(self, server: "QuicServer", initial_dcid: bytes) -> None:
        super().__init__(server.udp, server.config, is_server=True)
        self.server = server
        self.local_port = server.port
        client_secret, server_secret = qp.initial_secrets(initial_dcid)
        self.keys[qp.TYPE_INITIAL] = (
            qp.EpochKeys(server_secret), qp.EpochKeys(client_secret)
        )
        tls_config = TlsConfig(
            identity=server.config.identity,
            ticket_key=server.config.ticket_key,
            rng=random.Random(server.config.seed + 17),
        )
        self.tls = TlsSession(tls_config, is_server=True, transport_write=self._crypto_write)
        self.tls.on_handshake_complete = self._on_tls_done
        self.tls.on_early_data = lambda data: None  # 0-RTT rides EARLY packets

        original_receive = self.tls.receive

        def receive_and_maybe_unlock(data: bytes) -> None:
            original_receive(data)
            # Once the ClientHello is processed the PSK (if any) is known
            # and 0-RTT packets become decryptable.
            if self.tls.used_psk and qp.TYPE_EARLY not in self.keys:
                self._install_early_keys()
                self._retry_undecryptable()

        self._crypto_recv.on_data = receive_and_maybe_unlock

    def _on_tls_done(self) -> None:
        self.handshake_complete = True
        self._install_app_keys()
        self._send_packet(qp.TYPE_APP, [qp.HandshakeDoneFrame()])
        if self.on_handshake_complete:
            self.on_handshake_complete()
        self._pump()

    def _retry_undecryptable(self) -> None:
        pending, self._undecryptable = self._undecryptable, []
        for src_addr, src_port, data in pending:
            self.handle_datagram(src_addr, src_port, data)


class QuicServer:
    """Accepts QUIC connections on a UDP port."""

    def __init__(
        self,
        udp: UdpStack,
        port: int,
        config: QuicConfig,
        on_connection: Optional[Callable[[QuicServerConnection], None]] = None,
    ) -> None:
        self.udp = udp
        self.port = port
        self.config = config
        self.on_connection = on_connection
        self.connections: Dict[bytes, QuicServerConnection] = {}
        udp.bind(port, self._on_datagram)

    def _on_datagram(self, src_addr, src_port: int, data: bytes) -> None:
        try:
            packet_type, dcid, scid, _pn, _header, _ct = qp.parse_header(data)
        except DecodeError:
            return
        conn = self.connections.get(scid)
        if conn is None:
            if packet_type != qp.TYPE_INITIAL:
                return
            conn = QuicServerConnection(self, initial_dcid=dcid)
            conn.dcid = scid
            self.connections[scid] = conn
            if self.on_connection:
                self.on_connection(conn)
        conn.handle_datagram(src_addr, src_port, data)
