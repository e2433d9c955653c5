"""The TCP connection state machine.

Implements the RFC 793 FSM with the loss-recovery and performance
machinery the TCPLS experiments depend on:

- retransmission timeout per RFC 6298 with exponential backoff and Karn's
  algorithm for RTT sampling;
- fast retransmit on three duplicate ACKs with NewReno-style recovery;
- SACK generation (receiver) and a SACK scoreboard (sender) so recovery
  does not retransmit delivered data;
- window scaling, timestamps, MSS negotiation;
- TCP Fast Open (RFC 7413) data-in-SYN on both sides;
- the RFC 5482 user timeout, settable locally (the paper's TCPLS carries
  the peer's value over the secure channel and applies it here — the
  simulated equivalent of the ``setsockopt`` in section 3.1);
- RST handling that surfaces an ``on_reset`` event, which TCPLS failover
  (section 2.1) uses to re-establish the session's underlying connection.

The application-facing surface is callback-based: ``send``/``close`` plus
``on_data``, ``on_established``, ``on_close``, ``on_reset``, ``on_error``.

Header prediction.  ``on_segment`` is written for loss recovery; a
loss-free transfer or request/response exchange consists of four kinds
of segment only, and ``_predicted`` handles those in a straight line in
front of it — same mutations, same timer calls, same callbacks in the
same order (no switch; ``tests/tcp/test_header_prediction.py`` runs
every scripted world with it forced off and demands identical wire
bytes, events and state).  Predicted, in state ESTABLISHED, flags
``ACK`` or ``ACK|PSH``, Timestamps the sole option:

- a pure ACK with ``snd_una < ack <= snd_nxt`` while no fast-recovery or
  RTO episode is open and nothing re-sent is outstanding;
- a pure ACK with ``ack == snd_una`` outside fast recovery that is not
  the third duplicate in a row (a reply sent from inside ``on_data``
  leaves before the ACK of its request, which then duplicates it);
- in-order data (``seq == rcv_nxt``), with an empty reassembly queue
  and no peer FIN waiting behind a hole, that acknowledges nothing new
  (``ack == snd_una``) or advances ``snd_una`` as the first kind does.

Everything else takes the general path: old, out-of-range and third
duplicate ACKs, SACK, recovery, out-of-order data, SYN/FIN/RST, every
other state, and TFO.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Tuple

from repro import fastpath
from repro.netsim.packet import Datagram, PROTO_TCP, IPAddress
from repro.tcp import seqnum
from repro.tcp.congestion import CongestionControl, make as make_cc
from repro.tcp.options import (
    MAX_USER_TIMEOUT_SECONDS,
    FastOpenCookie,
    MaximumSegmentSize,
    SackBlocks,
    SackPermitted,
    Timestamps,
    UserTimeout,
    WindowScale,
    find_option,
)
from repro.tcp.rto import RtoEstimator
from repro.tcp.segment import Flags, TcpSegment

_send_time_of = attrgetter("send_time")

# Connection states.
CLOSED = "CLOSED"
SYN_SENT = "SYN_SENT"
SYN_RCVD = "SYN_RCVD"
ESTABLISHED = "ESTABLISHED"
FIN_WAIT_1 = "FIN_WAIT_1"
FIN_WAIT_2 = "FIN_WAIT_2"
CLOSE_WAIT = "CLOSE_WAIT"
CLOSING = "CLOSING"
LAST_ACK = "LAST_ACK"
TIME_WAIT = "TIME_WAIT"

_MAX_RETRIES = 10
_MAX_SYN_RETRIES = 6
_MAX_BURST_SEGMENTS = 10
_WINDOW_SCALE_SHIFT = 7
_DEFAULT_RECEIVE_WINDOW = 1 << 20  # 1 MiB
# Cap on congestion state carried across a controller swap; the old
# controller may be plugin-driven and its window peer-influenced.
_MAX_PRESERVED_WINDOW = float(16 * 1024 * 1024)


@dataclass
class _Inflight:
    """One unacknowledged segment retained for retransmission."""

    seq: int
    data: bytes
    syn: bool = False
    fin: bool = False
    send_time: float = 0.0
    retransmitted: bool = False
    sacked: bool = False
    lost: bool = False  # deemed lost (set for everything in flight at RTO)

    def length(self) -> int:
        return len(self.data) + (1 if self.syn else 0) + (1 if self.fin else 0)


class TcpConnection:
    """One TCP connection; created via ``TcpStack.connect`` or a listener."""

    def __init__(
        self,
        stack,
        local_addr: IPAddress,
        local_port: int,
        remote_addr: IPAddress,
        remote_port: int,
        mss: int = 1400,
        congestion: str = "reno",
        receive_window: int = _DEFAULT_RECEIVE_WINDOW,
        delayed_ack: bool = False,
    ) -> None:
        self.stack = stack
        self.sim = stack.sim
        self.local_addr = local_addr
        self.local_port = local_port
        self.remote_addr = remote_addr
        self.remote_port = remote_port
        self.state = CLOSED

        # Negotiated parameters.
        self.mss = mss
        self.peer_mss = mss
        self.snd_ws_shift = 0  # how much the peer scales windows it sends us
        self.rcv_ws_shift = _WINDOW_SCALE_SHIFT
        self.sack_enabled = False
        self._ts_recent = 0

        # Send state.
        self.iss = stack.allocate_iss()
        self.snd_una = self.iss
        self.snd_nxt = self.iss
        self.snd_wnd = mss * 10
        self._send_queue = bytearray()
        # Scoreboard of transmitted-but-unacked segments.  Insertion
        # order is sequence order (entries are keyed by first-transmit
        # seq and never re-keyed), which ACK processing and loss
        # recovery rely on; ``_inflight_bytes`` mirrors the summed
        # lengths so ``bytes_in_flight()`` is O(1).
        self._inflight: Dict[int, _Inflight] = {}
        self._inflight_bytes = 0
        self._fin_pending = False
        self._fin_sent = False
        self._fin_seq: Optional[int] = None

        # Delayed ACKs (RFC 1122 4.2.3.2): ack every second segment or
        # after at most 40 ms.  Off by default — immediate ACKs keep the
        # ACK clock dense, which the multipath scheduler prefers.
        self.delayed_ack = delayed_ack
        self._ack_pending_segments = 0
        self._delayed_ack_event = None

        # Receive state.
        self.irs = 0
        self.rcv_nxt = 0
        self.rcv_wnd_limit = receive_window
        # Out-of-order data keyed by sequence number, in sequence order
        # (so the earliest chunk is the first), and the bytes it holds.
        self._reassembly: Dict[int, bytes] = {}
        self._reassembly_bytes = 0
        self._paused = False
        self._pending_delivery = bytearray()
        self._peer_fin_seq: Optional[int] = None

        # Control machinery.
        self.cc: CongestionControl = make_cc(congestion, mss)
        self.rto = RtoEstimator()
        self._rto_event = None
        self._persist_event = None
        self._time_wait_event = None
        self._retries = 0
        self._dup_acks = 0
        self._recovery_point: Optional[int] = None
        self._rto_point: Optional[int] = None
        self._highest_sacked: Optional[int] = None
        self.user_timeout: Optional[float] = None
        self._first_unacked_time: Optional[float] = None
        # snd_nxt when a segment was last re-sent (its scoreboard entry's
        # send time rewritten), until snd_una passes it; None means the
        # scoreboard's send times are in insertion order.
        self._resent_below: Optional[int] = None

        # TCP Fast Open.
        self._tfo_data: bytes = b""
        self._syn_had_tfo = False
        self.tfo_used = False

        # Middlebox detection support (paper section 4.5).
        self.sent_syn_bytes: bytes = b""
        self._syn: Optional[TcpSegment] = None  # the SYN sent_syn_bytes encodes
        self.received_syn_bytes: bytes = b""

        # Application callbacks.
        self.on_data: Optional[Callable[[bytes], None]] = None
        self.on_established: Optional[Callable[[], None]] = None
        self.on_close: Optional[Callable[[], None]] = None
        self.on_reset: Optional[Callable[[], None]] = None
        self.on_error: Optional[Callable[[str], None]] = None
        # Fired whenever an ACK frees send window — cross-layer hook used
        # by the TCPLS scheduler to keep multiple connections' pipes full.
        self.on_send_progress: Optional[Callable[[], None]] = None

        # Statistics for experiments.
        self.stats = {
            "bytes_sent": 0,
            "bytes_received": 0,
            "segments_sent": 0,
            "segments_received": 0,
            "retransmissions": 0,
            "fast_retransmits": 0,
            "timeouts": 0,
            "dup_acks_received": 0,
        }
        # Delivery accounting for TCP_INFO-style snapshots (repro.obs):
        # bytes the peer has cumulatively acknowledged, and when this
        # connection reached ESTABLISHED (basis of the delivery rate).
        self.delivered_bytes = 0
        self.sacked_segments = 0
        self._established_time: Optional[float] = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    @property
    def four_tuple(self) -> Tuple:
        return (self.local_addr, self.local_port, self.remote_addr, self.remote_port)

    def open_active(
        self, fast_open_cookie: Optional[bytes] = None, fast_open_data: bytes = b""
    ) -> None:
        """Send the initial SYN (client side)."""
        if self.state != CLOSED:
            raise RuntimeError(f"open_active in state {self.state}")
        self.state = SYN_SENT
        options = [
            MaximumSegmentSize(mss=self.mss),
            WindowScale(shift=self.rcv_ws_shift),
            SackPermitted(),
            Timestamps(value=self._ts_now(), echo_reply=0),
        ]
        payload = b""
        if fast_open_cookie is not None:
            options.append(FastOpenCookie(cookie=fast_open_cookie))
            self._syn_had_tfo = True
            if fast_open_cookie and fast_open_data:
                payload = fast_open_data[: self.mss]
                self._tfo_data = payload
                self.tfo_used = True
                fast_open_data = fast_open_data[len(payload):]
        if fast_open_data:
            # No cookie yet (or overflow): deliver after the handshake.
            self._send_queue.extend(fast_open_data)
        syn = TcpSegment(
            src_port=self.local_port,
            dst_port=self.remote_port,
            seq=self.iss,
            flags=Flags.SYN,
            window=min(self.rcv_wnd_limit, 0xFFFF),
            options=options,
            payload=payload,
        )
        self.snd_nxt = seqnum.seq_add(self.iss, 1 + len(payload))
        entry = _Inflight(
            seq=self.iss, data=payload, syn=True, send_time=self.sim.now
        )
        self._inflight[self.iss] = entry
        self._inflight_bytes += entry.length()
        self._syn = syn
        self.sent_syn_bytes = syn.to_bytes(self.local_addr, self.remote_addr)
        self._transmit(syn)
        self._arm_rto()

    def send(self, data: bytes) -> int:
        """Queue application data for transmission; returns bytes accepted."""
        if self.state not in (ESTABLISHED, CLOSE_WAIT, SYN_SENT, SYN_RCVD):
            raise RuntimeError(f"send() in state {self.state}")
        if self._fin_pending or self._fin_sent:
            raise RuntimeError("send() after close()")
        self._send_queue.extend(data)
        self._try_send()
        return len(data)

    def close(self) -> None:
        """Graceful close: FIN after all queued data is sent."""
        if self.state in (CLOSED, TIME_WAIT, LAST_ACK, CLOSING, FIN_WAIT_1, FIN_WAIT_2):
            return
        self._fin_pending = True
        self._try_send()

    def abort(self, reason: str = "aborted") -> None:
        """Hard close: send RST and drop all state."""
        if self.state not in (CLOSED, TIME_WAIT):
            rst = self._make_segment(flags=Flags.RST | Flags.ACK, seq=self.snd_nxt)
            self._transmit(rst)
        self._enter_closed(notify_error=reason)

    def set_user_timeout(self, seconds: Optional[float]) -> None:
        """RFC 5482 user timeout: abort if unacked data stalls this long."""
        self.user_timeout = seconds

    def set_congestion_control(self, cc: CongestionControl) -> None:
        """Swap the congestion controller, preserving the current window.

        The outgoing controller may be plugin-driven, so the preserved
        state is clamped: an absurd cwnd must not survive the swap into
        a fresh controller.
        """
        cc.cwnd = min(max(self.cc.cwnd, cc.mss), _MAX_PRESERVED_WINDOW)
        preserved_ssthresh = self.cc.ssthresh
        if preserved_ssthresh != float("inf"):
            preserved_ssthresh = min(preserved_ssthresh, _MAX_PRESERVED_WINDOW)
        cc.ssthresh = preserved_ssthresh
        self.cc = cc

    def pause_reading(self) -> None:
        """Stop delivering to the app; the advertised window shrinks."""
        self._paused = True

    def resume_reading(self) -> None:
        self._paused = False
        if self._pending_delivery:
            data = bytes(self._pending_delivery)
            self._pending_delivery.clear()
            self._deliver(data)
        self._send_ack()

    def send_queue_length(self) -> int:
        return len(self._send_queue)

    def bytes_in_flight(self) -> int:
        return self._inflight_bytes

    def delivery_rate(self) -> float:
        """Average delivery rate in bits/s since ESTABLISHED (0 before)."""
        if self._established_time is None:
            return 0.0
        elapsed = self.sim.now - self._established_time
        if elapsed <= 0:
            return 0.0
        return self.delivered_bytes * 8 / elapsed

    def effective_mss(self) -> int:
        return min(self.mss, self.peer_mss)

    # ------------------------------------------------------------------
    # Passive open (invoked by the listener)
    # ------------------------------------------------------------------

    def open_passive(self, syn: TcpSegment, raw_syn: bytes, tfo_cookie_ok: bool) -> None:
        """Initialize from a received SYN and reply with SYN+ACK."""
        if self.state not in (CLOSED, SYN_RCVD):
            raise RuntimeError(f"open_passive in state {self.state}")
        self.received_syn_bytes = raw_syn
        self.irs = syn.seq
        self.rcv_nxt = seqnum.seq_add(syn.seq, 1)
        self._negotiate_from_options(syn)
        self.state = SYN_RCVD

        tfo_payload_accepted = b""
        if syn.payload and tfo_cookie_ok:
            tfo_payload_accepted = syn.payload
            self.rcv_nxt = seqnum.seq_add(self.rcv_nxt, len(syn.payload))
            self.tfo_used = True

        options = [
            MaximumSegmentSize(mss=self.mss),
            Timestamps(value=self._ts_now(), echo_reply=self._ts_recent),
        ]
        if find_option(syn.options, WindowScale) is not None:
            # Window scaling applies only when both sides offer it.
            options.insert(1, WindowScale(shift=self.rcv_ws_shift))
        if self.sack_enabled:
            options.append(SackPermitted())
        tfo_option = find_option(syn.options, FastOpenCookie)
        if tfo_option is not None and not tfo_option.cookie:
            # Cookie request: mint one for this client.
            options.append(
                FastOpenCookie(cookie=self.stack.fastopen.make_cookie(self.remote_addr))
            )
        syn_ack = TcpSegment(
            src_port=self.local_port,
            dst_port=self.remote_port,
            seq=self.iss,
            ack=self.rcv_nxt,
            flags=Flags.SYN | Flags.ACK,
            window=min(self.rcv_wnd_limit, 0xFFFF),
            options=options,
        )
        self.snd_nxt = seqnum.seq_add(self.iss, 1)
        self._inflight[self.iss] = _Inflight(
            seq=self.iss, data=b"", syn=True, send_time=self.sim.now
        )
        self._inflight_bytes += 1
        self._transmit(syn_ack)
        self._arm_rto()
        if tfo_payload_accepted:
            self._deliver(tfo_payload_accepted)

    # ------------------------------------------------------------------
    # Segment input
    # ------------------------------------------------------------------

    def on_segment(self, segment: TcpSegment) -> None:
        self.stats["segments_received"] += 1
        options = segment.options
        sole = len(options) == 1 and options[0].__class__ is Timestamps
        timestamps = options[0] if sole else find_option(options, Timestamps)
        if timestamps is not None:
            self._ts_recent = timestamps.value
            if (
                sole
                and self.state == ESTABLISHED
                and segment.flags & ~Flags.PSH == Flags.ACK
                and self._predicted(segment, timestamps)
            ):
                return

        if self.state == SYN_SENT:
            self._handle_syn_sent(segment)
            return
        if self.state == CLOSED:
            return
        if self.state == TIME_WAIT:
            if segment.is_fin:
                self._send_ack()
            return

        # RFC 793 sequence acceptability (simplified, no PAWS).
        if segment.is_rst:
            if self._rst_acceptable(segment):
                self._handle_rst()
            return
        if segment.is_syn:
            # SYN on an established connection: retransmitted SYN from the
            # peer means our SYN+ACK was lost — retransmit it.
            if self.state == SYN_RCVD and segment.seq == self.irs:
                self._retransmit_earliest()
            return

        if segment.is_ack:
            self._handle_ack(segment, timestamps)
            if self.state == CLOSED:
                return

        if segment.payload or segment.is_fin:
            self._handle_data(segment)

    def _predicted(self, segment: TcpSegment, timestamps: Timestamps) -> bool:
        """Header prediction: the four segments a loss-free transfer and
        a request/response exchange are made of, handled in a straight
        line.  ``on_segment`` has established: state ESTABLISHED (so no
        FIN of ours is out), flags ACK or ACK|PSH, Timestamps the sole
        option.  Every further precondition is tested before anything is
        mutated; False leaves the segment, untouched, to the general path
        below — the specification this must match event for event.
        """
        ack = segment.ack
        payload = segment.payload
        advance = (ack - self.snd_una) & 0xFFFFFFFF
        if payload and (
            segment.seq != self.rcv_nxt
            or self._reassembly
            or self._peer_fin_seq is not None
        ):
            return False
        if advance:
            # An ACK advancing snd_una within snd_nxt, outside any
            # recovery episode: _handle_ack + _handle_new_ack.
            if (
                not advance <= (self.snd_nxt - self.snd_una) & 0xFFFFFFFF
                or self._recovery_point is not None
                or self._rto_point is not None
                or self._resent_below is not None
            ):
                return False
            now = self.sim.now
            if timestamps.echo_reply:
                sample = now - (timestamps.echo_reply / 1000.0)
                if 0 <= sample < 60:
                    self.rto.on_measurement(sample)
                    self.cc.observe_rtt(sample)
            self.snd_wnd = segment.window << self.snd_ws_shift
            acked_bytes = 0
            rtt_sample: Optional[float] = None
            first_unacked_time: Optional[float] = None
            inflight = self._inflight
            acked_seqs: List[int] = []
            for seq, entry in inflight.items():
                length = entry.length()
                end = (seq + length) & 0xFFFFFFFF
                if 0 < (end - ack) & 0xFFFFFFFF < 1 << 31:
                    first_unacked_time = entry.send_time
                    break
                acked_bytes += length
                if not entry.retransmitted and not entry.sacked and end == ack:
                    rtt_sample = now - entry.send_time
                acked_seqs.append(seq)
            for seq in acked_seqs:
                del inflight[seq]
            self._inflight_bytes -= acked_bytes
            self.snd_una = ack
            self._dup_acks = 0  # _retries is nonzero only inside an RTO episode
            self._first_unacked_time = first_unacked_time
            if rtt_sample is not None:
                self.rto.on_measurement(rtt_sample)
            self.delivered_bytes += acked_bytes
            if acked_bytes:
                srtt = self.rto.srtt
                self.cc.on_ack(acked_bytes, srtt if srtt is not None else 0.0, now)
            self._arm_rto()
            if acked_bytes and self.on_send_progress:
                self.on_send_progress()
        elif payload:
            # In-order data acknowledging nothing new: the window update.
            self.snd_wnd = segment.window << self.snd_ws_shift
        else:
            # A duplicate ACK outside recovery, before the third: the
            # window update and _handle_possible_dup_ack's count.
            if self._recovery_point is not None or self._dup_acks >= 2:
                return False
            self.snd_wnd = segment.window << self.snd_ws_shift
            if self._inflight:
                self._dup_acks += 1
                self.stats["dup_acks_received"] += 1
        self._try_send()
        if payload and self.state != CLOSED:
            # In-order data, nothing buffered out of order, no peer FIN
            # waiting for it: _handle_data.
            self.stats["bytes_received"] += len(payload)
            self.rcv_nxt = (self.rcv_nxt + len(payload)) & 0xFFFFFFFF
            self._deliver(bytes(payload))
            self._ack_data(False)
        return True

    # -- SYN_SENT ---------------------------------------------------------

    def _handle_syn_sent(self, segment: TcpSegment) -> None:
        if segment.is_rst:
            if segment.is_ack and segment.ack == self.snd_nxt:
                self._enter_closed(notify_error="connection refused")
            return
        if not (segment.is_syn and segment.is_ack):
            return
        acceptable = seqnum.seq_between(
            seqnum.seq_add(self.iss, 1), segment.ack, seqnum.seq_add(self.snd_nxt, 1)
        )
        if not acceptable:
            return
        self.irs = segment.seq
        self.rcv_nxt = seqnum.seq_add(segment.seq, 1)
        self._negotiate_from_options(segment)
        self.snd_wnd = segment.window  # SYN segments are never scaled

        # Handle TFO: ack may cover SYN only, or SYN + early data.
        acked = seqnum.seq_sub(segment.ack, self.iss) - 1  # payload bytes acked
        entry = self._inflight.pop(self.iss, None)
        if entry is not None:
            self._inflight_bytes -= entry.length()
        if entry is not None and entry.data and acked < len(entry.data):
            # Server ignored our TFO data (cookie rejected): requeue it.
            self._send_queue[:0] = entry.data[max(acked, 0):]
            self.snd_nxt = segment.ack
            self.tfo_used = False
        self.snd_una = segment.ack
        if entry is not None and not entry.retransmitted:
            self.rto.on_measurement(self.sim.now - entry.send_time)
        cookie_option = find_option(segment.options, FastOpenCookie)
        if cookie_option is not None and cookie_option.cookie:
            self.stack.fastopen.remember_cookie(self.remote_addr, cookie_option.cookie)

        self.state = ESTABLISHED
        if self._established_time is None:
            self._established_time = self.sim.now
        self._retries = 0
        self._cancel_rto()
        self._send_ack()
        if segment.payload:
            self._handle_data(segment)
        if self.on_established:
            self.on_established()
        self._try_send()
        self._arm_rto()

    # -- RST --------------------------------------------------------------------

    def _rst_acceptable(self, segment: TcpSegment) -> bool:
        window = max(self._advertised_window(), 1)
        return seqnum.seq_between(
            self.rcv_nxt, segment.seq, seqnum.seq_add(self.rcv_nxt, window)
        ) or segment.seq == self.rcv_nxt

    def _handle_rst(self) -> None:
        was_established = self.state in (
            ESTABLISHED, FIN_WAIT_1, FIN_WAIT_2, CLOSE_WAIT, SYN_RCVD,
        )
        self._enter_closed(notify_error=None)
        if was_established and self.on_reset:
            self.on_reset()

    # -- ACK processing -----------------------------------------------------------

    def _handle_ack(
        self, segment: TcpSegment, timestamps: Optional[Timestamps] = None
    ) -> None:
        ack = segment.ack
        # RFC 7323 timestamp-based RTT sampling, but only on ACKs that
        # advance snd_una: echoes on duplicate/idle ACKs reflect stale
        # timestamps and would inflate the RTO.  Unlike Karn sampling this
        # works even when the acked segment was retransmitted, keeping the
        # RTO from staying backed off across consecutive loss events.
        # ``timestamps`` is the option already parsed by ``on_segment`` —
        # reparsing it here would scan the option list a second time per
        # ACK for the identical value.
        if seqnum.seq_gt(ack, self.snd_una):
            if timestamps is None:
                timestamps = find_option(segment.options, Timestamps)
            if timestamps is not None and timestamps.echo_reply:
                sample = self.sim.now - (timestamps.echo_reply / 1000.0)
                if 0 <= sample < 60:
                    self.rto.on_measurement(sample)
                    self.cc.observe_rtt(sample)
        if self.state == SYN_RCVD:
            if seqnum.seq_ge(ack, seqnum.seq_add(self.iss, 1)):
                self.state = ESTABLISHED
                if self._established_time is None:
                    self._established_time = self.sim.now
                if self.on_established:
                    self.on_established()
            else:
                return

        if not segment.is_syn:
            self.snd_wnd = segment.window << self.snd_ws_shift

        sack = find_option(segment.options, SackBlocks)
        if sack is not None:
            self._apply_sack(sack.blocks)

        if seqnum.seq_gt(ack, self.snd_nxt):
            return  # acks data we never sent
        if seqnum.seq_le(ack, self.snd_una):
            self._handle_possible_dup_ack(segment)
        else:
            self._handle_new_ack(ack)

        self._try_send()
        self._maybe_finish_close(ack)

    def _handle_new_ack(self, ack: int) -> None:
        acked_bytes = 0
        rtt_sample: Optional[float] = None
        # The scoreboard is in sequence order and entry ends strictly
        # increase, so an ACK always covers a prefix: scan until the
        # first entry past it instead of sorting per ACK.
        acked_seqs: List[int] = []
        first_unacked: Optional[_Inflight] = None
        for seq, entry in self._inflight.items():
            end = seqnum.seq_add(seq, entry.length())
            if not seqnum.seq_le(end, ack):
                first_unacked = entry
                break
            acked_bytes += entry.length()
            # Karn sample only from the segment whose arrival produced
            # this ACK (end == ack): earlier segments may have been
            # sitting in the receiver's reassembly buffer for many RTTs
            # waiting for a hole to fill.
            if not entry.retransmitted and not entry.sacked and end == ack:
                rtt_sample = self.sim.now - entry.send_time
            acked_seqs.append(seq)
        for seq in acked_seqs:
            self._inflight_bytes -= self._inflight.pop(seq).length()
        self.snd_una = ack
        self._retries = 0
        self._dup_acks = 0
        # Insertion order is send order until something is re-sent, so
        # the oldest send time outstanding is the first entry's; only
        # while a re-sent segment may still be outstanding does it take
        # a scan (min() via a C-level attrgetter key).
        if self._resent_below is not None and seqnum.seq_ge(
            ack, self._resent_below
        ):
            self._resent_below = None
        if first_unacked is not None and self._resent_below is not None:
            first_unacked = min(self._inflight.values(), key=_send_time_of)
        self._first_unacked_time = (
            None if first_unacked is None else first_unacked.send_time
        )
        if rtt_sample is not None:
            self.rto.on_measurement(rtt_sample)
        if self._recovery_point is not None:
            if seqnum.seq_ge(ack, self._recovery_point):
                self._recovery_point = None  # recovery complete
                self._highest_sacked = None
            else:
                # Partial ACK: repair holes at ACK-clock rate.  With SACK,
                # the scoreboard knows exactly which segments are missing
                # and which were already retransmitted; without it, fall
                # back to NewReno's one-retransmission-per-partial-ACK.
                if self.sack_enabled:
                    self._sack_recovery_send(cap=3)
                else:
                    self._retransmit_earliest()
        elif self._rto_point is not None:
            if seqnum.seq_ge(ack, self._rto_point):
                self._rto_point = None
            else:
                # Post-RTO recovery: each ACK repairs the next hole while
                # slow start regrows cwnd for new data.
                if self.sack_enabled:
                    self._sack_recovery_send(cap=2)
                else:
                    self._retransmit_earliest()
        self.delivered_bytes += acked_bytes
        if acked_bytes and self._recovery_point is None:
            srtt = self.rto.srtt
            self.cc.on_ack(
                acked_bytes, srtt if srtt is not None else 0.0, self.sim.now
            )
        self._arm_rto()
        if acked_bytes and self.on_send_progress:
            self.on_send_progress()

    def _handle_possible_dup_ack(self, segment: TcpSegment) -> None:
        if segment.payload or segment.is_fin:
            return  # data segments aren't duplicate ACKs
        if not self._inflight:
            return
        self._dup_acks += 1
        self.stats["dup_acks_received"] += 1
        if self._dup_acks == 3 and self._recovery_point is None:
            self.stats["fast_retransmits"] += 1
            self._recovery_point = self.snd_nxt
            self.cc.on_loss(self.bytes_in_flight(), self.sim.now)
            if self.sack_enabled:
                self._sack_recovery_send(cap=2)
            else:
                self._retransmit_earliest()
        elif self._recovery_point is not None:
            self._sack_recovery_send(cap=1)

    def _apply_sack(self, blocks) -> None:
        if not self.sack_enabled:
            return
        for left, right in blocks:
            for seq, entry in self._inflight.items():
                end = seqnum.seq_add(seq, entry.length())
                if seqnum.seq_ge(seq, left) and seqnum.seq_le(end, right):
                    if not entry.sacked:
                        self.sacked_segments += 1
                    entry.sacked = True
            if self._highest_sacked is None or seqnum.seq_gt(
                right, self._highest_sacked
            ):
                self._highest_sacked = right

    def _sack_recovery_send(self, cap: int = 2) -> None:
        """SACK-based loss recovery (RFC 6675, simplified).

        Resend up to ``cap`` not-yet-retransmitted holes below the highest
        SACKed sequence.  Pacing at ACK-clock rate (small cap per event)
        avoids retransmission bursts that would themselves overflow the
        bottleneck queue — the difference between ~5 and ~25 Mbps after a
        slow-start overshoot on a 30 Mbps path.
        """
        if not self.sack_enabled:
            return
        budget_bytes = self.cc.window() - self._pipe_estimate()
        highest = self._highest_sacked
        sent = 0
        # Insertion order is sequence order (nothing below adds or
        # removes scoreboard entries, so it is safe to iterate live).
        for entry in self._inflight.values():
            if sent >= cap or budget_bytes <= 0:
                break
            if entry.sacked or entry.retransmitted:
                continue
            end = seqnum.seq_add(entry.seq, entry.length())
            eligible = entry.lost or (
                highest is not None and seqnum.seq_gt(highest, end)
            )
            if not eligible:
                continue  # no loss evidence for this segment yet
            budget_bytes -= entry.length()
            self._note_retransmission(entry)
            flags = Flags.ACK | (Flags.FIN if entry.fin else Flags.PSH)
            self._transmit(
                self._make_segment(flags=flags, seq=entry.seq, payload=entry.data)
            )
            sent += 1

    # -- data receive ---------------------------------------------------------------

    def _handle_data(self, segment: TcpSegment) -> None:
        if self.state not in (
            ESTABLISHED, FIN_WAIT_1, FIN_WAIT_2, SYN_RCVD, CLOSE_WAIT, CLOSING,
        ):
            return
        seq = segment.seq
        payload = segment.payload

        if segment.is_fin:
            fin_seq = seqnum.seq_add(seq, len(payload))
            self._peer_fin_seq = fin_seq

        if payload:
            self.stats["bytes_received"] += len(payload)
            if seqnum.seq_lt(seq, self.rcv_nxt):
                # Partially or fully duplicated segment.
                overlap = seqnum.seq_sub(self.rcv_nxt, seq)
                if overlap < len(payload):
                    payload = payload[overlap:]
                    seq = self.rcv_nxt
                else:
                    payload = b""
            if payload and seqnum.seq_sub(seq, self.rcv_nxt) <= self.rcv_wnd_limit:
                self._reassemble(seq, payload)

        self._process_peer_fin()
        self._ack_data(segment.is_fin)

    def _ack_data(self, fin: bool) -> None:
        if not self.delayed_ack or fin or self._reassembly:
            # Immediate ACK (also for out-of-order data: fast retransmit
            # at the sender depends on prompt duplicate ACKs).
            self._send_ack_now()
        else:
            self._ack_pending_segments += 1
            if self._ack_pending_segments >= 2:
                self._send_ack_now()
            elif self._delayed_ack_event is None:
                self._delayed_ack_event = self.sim.schedule(
                    0.040, self._send_ack_now
                )

    def _send_ack_now(self) -> None:
        self._ack_pending_segments = 0
        if self._delayed_ack_event is not None:
            self._delayed_ack_event.cancel()
            self._delayed_ack_event = None
        self._send_ack()

    def _reassemble(self, seq: int, payload: bytes) -> None:
        """Buffer ``payload`` at ``seq`` in sequence order — the first
        arrival at a sequence number wins — and deliver what is now
        contiguous."""
        buffer = self._reassembly
        if seq not in buffer:
            self._reassembly_bytes += len(payload)
            # Offset-binary distance from rcv_nxt: orders as seq_sub does.
            base = self.rcv_nxt - 0x80000000
            key = (seq - base) & 0xFFFFFFFF
            if buffer and (next(reversed(buffer)) - base) & 0xFFFFFFFF > key:
                items = list(buffer.items())
                index = 0
                while (items[index][0] - base) & 0xFFFFFFFF < key:
                    index += 1
                items.insert(index, (seq, payload))
                buffer.clear()
                buffer.update(items)
            else:
                buffer[seq] = payload
        delivered = bytearray()
        while buffer:
            seq = next(iter(buffer))
            offset = seqnum.seq_sub(self.rcv_nxt, seq)
            if offset < 0:
                break  # hole before the earliest buffered chunk
            data = buffer.pop(seq)
            self._reassembly_bytes -= len(data)
            if offset < len(data):
                chunk = data[offset:]
                delivered.extend(chunk)
                self.rcv_nxt = seqnum.seq_add(self.rcv_nxt, len(chunk))
            # else: chunk entirely duplicates delivered data; discard.
        if delivered:
            self._deliver(bytes(delivered))

    def _deliver(self, data: bytes) -> None:
        if self._paused:
            self._pending_delivery.extend(data)
            return
        if self.on_data:
            self.on_data(data)

    def _process_peer_fin(self) -> None:
        if self._peer_fin_seq is None or self.rcv_nxt != self._peer_fin_seq:
            return
        self.rcv_nxt = seqnum.seq_add(self.rcv_nxt, 1)
        self._peer_fin_seq = None
        if self.state in (ESTABLISHED, SYN_RCVD):
            self.state = CLOSE_WAIT
        elif self.state == FIN_WAIT_1:
            self.state = CLOSING
        elif self.state == FIN_WAIT_2:
            self._enter_time_wait()
        if self.on_close:
            self.on_close()

    # -- closing ----------------------------------------------------------------------

    def _maybe_finish_close(self, ack: int) -> None:
        if self._fin_seq is None:
            return
        fin_acked = seqnum.seq_gt(ack, self._fin_seq)
        if not fin_acked:
            return
        if self.state == FIN_WAIT_1:
            self.state = FIN_WAIT_2
        elif self.state == CLOSING:
            self._enter_time_wait()
        elif self.state == LAST_ACK:
            self._enter_closed(notify_error=None)

    def _enter_time_wait(self) -> None:
        self.state = TIME_WAIT
        self._cancel_rto()
        self._time_wait_event = self.sim.schedule(
            2 * self.stack.msl, self._enter_closed, None
        )

    def vanish(self) -> None:
        """Crash-model teardown: the owning process died mid-flight.

        No FIN, no RST, no callbacks — the connection simply ceases to
        exist, exactly like kernel state torn down with its process.
        The peer discovers the death only when its next segment draws an
        RST from the stack (which, having forgotten us, answers unknown
        connections per RFC 793).  Pending timers are cancelled so a
        crashed endpoint cannot fire retransmits from beyond the grave.
        """
        self.on_data = None
        self.on_established = None
        self.on_close = None
        self.on_reset = None
        self.on_error = None
        self.on_send_progress = None
        if self._delayed_ack_event is not None:
            self._delayed_ack_event.cancel()
            self._delayed_ack_event = None
        self._send_queue.clear()
        self._enter_closed(notify_error=None)

    def _enter_closed(self, notify_error: Optional[str]) -> None:
        already_closed = self.state == CLOSED
        self.state = CLOSED
        self._cancel_rto()
        if self._persist_event is not None:
            self._persist_event.cancel()
        if self._time_wait_event is not None:
            self._time_wait_event.cancel()
        self._inflight.clear()
        self._inflight_bytes = 0
        self.stack.forget(self)
        if already_closed:
            return
        if notify_error and self.on_error:
            self.on_error(notify_error)

    # ------------------------------------------------------------------
    # Output path
    # ------------------------------------------------------------------

    def _try_send(self) -> None:
        if not self._send_queue and not self._fin_pending:
            return  # nothing to send, in any state
        sendable = (ESTABLISHED, CLOSE_WAIT)
        if self.tfo_used and self.state == SYN_RCVD:
            # RFC 7413: a TFO server may send data before the handshake
            # completes (its SYN is already acknowledged by the SYN data).
            sendable = (ESTABLISHED, CLOSE_WAIT, SYN_RCVD)
        if self.state not in sendable:
            self._maybe_send_fin()
            return
        mss = self.effective_mss()
        burst = 0
        # netsim.vectorq: the burst's segments are fully decided by the
        # window checks below before anything reaches the wire, so the
        # fast path builds them all, ships one batch to the link
        # (which computes the queue service times for the whole burst in
        # numpy), and arms the RTO once.  Window/SWS decisions, packet
        # bytes, and delivery times are identical to the per-segment
        # path; only internal event sequence numbering differs, which the
        # cross-check test pins down via pcap-digest equality.
        batching = fastpath.flags["netsim.vectorq"]
        batch: List[TcpSegment] = []
        window = min(self.cc.window(), self.snd_wnd)  # sending moves neither
        while self._send_queue:
            if burst >= _MAX_BURST_SEGMENTS:
                break  # ACK clocking resumes the send (burst avoidance)
            available = window - self._inflight_bytes
            if available <= 0:
                self._arm_persist_if_needed()
                break
            chunk_len = min(mss, len(self._send_queue), available)
            if chunk_len <= 0:
                break
            if chunk_len < mss and chunk_len < len(self._send_queue):
                # Sender-side silly-window-syndrome avoidance (RFC 1122
                # 4.2.3.4): don't dribble sub-MSS segments while more data
                # waits; let the window open to a full segment first.
                break
            chunk = bytes(self._send_queue[:chunk_len])
            del self._send_queue[:chunk_len]
            if batching:
                batch.append(self._prepare_data_segment(chunk))
            else:
                self.stack.send_raw(self, self._prepare_data_segment(chunk))
                self._arm_rto()
            burst += 1
        if batch:
            if len(batch) == 1:
                self.stack.send_raw(self, batch[0])
            else:
                self.stack.send_raw_batch(self, batch)
            self._arm_rto()
        self._maybe_send_fin()

    def _prepare_data_segment(self, chunk: bytes) -> TcpSegment:
        """Sequence/in-flight bookkeeping for one data segment, without
        transmitting — the burst path ships the returned segments in one
        batch."""
        seq = self.snd_nxt
        segment = self._make_segment(
            flags=Flags.ACK | Flags.PSH, seq=seq, payload=chunk
        )
        self.snd_nxt = seqnum.seq_add(self.snd_nxt, len(chunk))
        # The dict ``_Inflight.__init__`` would fill, without its call.
        entry = object.__new__(_Inflight)
        entry.__dict__ = {
            "seq": seq, "data": chunk, "syn": False, "fin": False,
            "send_time": self.sim.now, "retransmitted": False, "sacked": False,
            "lost": False}
        self._inflight[seq] = entry
        self._inflight_bytes += len(chunk)
        if self._first_unacked_time is None:
            self._first_unacked_time = self.sim.now
        self.stats["bytes_sent"] += len(chunk)
        self.stats["segments_sent"] += 1
        return segment

    def _maybe_send_fin(self) -> None:
        if not self._fin_pending or self._fin_sent or self._send_queue:
            return
        if self.state not in (ESTABLISHED, CLOSE_WAIT, SYN_RCVD):
            return
        seq = self.snd_nxt
        fin = self._make_segment(flags=Flags.FIN | Flags.ACK, seq=seq)
        self.snd_nxt = seqnum.seq_add(self.snd_nxt, 1)
        self._inflight[seq] = _Inflight(
            seq=seq, data=b"", fin=True, send_time=self.sim.now
        )
        self._inflight_bytes += 1
        self._fin_sent = True
        self._fin_seq = seq
        self.state = FIN_WAIT_1 if self.state in (ESTABLISHED, SYN_RCVD) else LAST_ACK
        self._transmit(fin)
        self._arm_rto()

    def _send_ack(self) -> None:
        options = []
        if self.sack_enabled and self._reassembly:
            blocks = self._sack_blocks()
            if blocks:
                options.append(SackBlocks(blocks=tuple(blocks[:3])))
        ack = self._make_segment(flags=Flags.ACK, seq=self.snd_nxt, options=options)
        self._transmit(ack)

    def _sack_blocks(self) -> List[Tuple[int, int]]:
        """Coalesce the reassembly queue, in sequence order, into SACK ranges."""
        merged: List[List[int]] = []
        for left, data in self._reassembly.items():
            right = seqnum.seq_add(left, len(data))
            if merged and seqnum.seq_le(left, merged[-1][1]):
                if seqnum.seq_gt(right, merged[-1][1]):
                    merged[-1][1] = right
            else:
                merged.append([left, right])
        return [(left, right) for left, right in merged]

    def _make_segment(
        self,
        flags: int,
        seq: int,
        payload: bytes = b"",
        options: Optional[list] = None,
    ) -> TcpSegment:
        # A frozen dataclass's ``__init__`` sets each field through
        # ``object.__setattr__``: fill the same dict directly.
        stamp = object.__new__(Timestamps)
        stamp.__dict__.update(value=self._ts_now(), echo_reply=self._ts_recent)
        options = [*options, stamp] if options else [stamp]
        if flags == Flags.SYN:
            window_field = min(self._advertised_window(), 0xFFFF)
        else:
            # The 16-bit field silently truncates; clamp so a stripped
            # window-scale option degrades to a small window, not zero.
            window_field = min(
                self._advertised_window() >> self.rcv_ws_shift, 0xFFFF
            )
        # Send-path construction: fill the instance dict directly
        # instead of running nine __setattr__ calls through the
        # dataclass __init__, with the values the constructor would set
        # (urgent defaults to 0, no cached wire bytes).
        segment = object.__new__(TcpSegment)
        segment.__dict__.update(
            src_port=self.local_port,
            dst_port=self.remote_port,
            seq=seq,
            ack=self.rcv_nxt,
            flags=flags,
            window=window_field,
            options=options,
            payload=payload,
            urgent=0,
            _wire=None,
        )
        return segment

    def _advertised_window(self) -> int:
        used = len(self._pending_delivery) + self._reassembly_bytes
        return max(self.rcv_wnd_limit - used, 0)

    def _transmit(self, segment: TcpSegment) -> None:
        self.stats["segments_sent"] += 1
        self.stack.send_raw(self, segment)

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------

    def _arm_rto(self) -> None:
        if not self._inflight:
            self._cancel_rto()
        elif self._rto_event is not None and self._rto_event.pending:
            # Pushed back in place: same (time, seq) as cancel + schedule.
            self.sim.reschedule(self._rto_event, self.rto.rto)
        else:
            self._rto_event = self.sim.schedule(self.rto.rto, self._on_rto)

    def _cancel_rto(self) -> None:
        if self._rto_event is not None:
            self._rto_event.cancel()
            self._rto_event = None

    def _on_rto(self) -> None:
        self._rto_event = None
        if not self._inflight:
            return
        self._retries += 1
        self.stats["timeouts"] += 1
        max_retries = _MAX_SYN_RETRIES if self.state in (SYN_SENT, SYN_RCVD) else _MAX_RETRIES
        stalled = (
            self._first_unacked_time is not None
            and self.user_timeout is not None
            and self.sim.now - self._first_unacked_time >= self.user_timeout
        )
        if self._retries > max_retries or stalled:
            reason = "user timeout" if stalled else "too many retransmissions"
            self._enter_closed(notify_error=reason)
            return
        self.rto.on_timeout()
        self.cc.on_timeout(self.bytes_in_flight(), self.sim.now)
        self._dup_acks = 0
        self._recovery_point = None
        self._rto_point = self.snd_nxt
        self._highest_sacked = None
        for entry in self._inflight.values():
            # RFC 6675 after RTO: everything outstanding is deemed lost
            # and prior retransmission evidence is discarded; partial
            # ACKs will re-drive go-back-N-style repair in slow start.
            entry.retransmitted = False
            entry.lost = True
        self._retransmit_earliest()
        self._arm_rto()

    def _pipe_estimate(self) -> int:
        """RFC 6675 pipe: bytes actually in flight.

        Unsacked segments with SACK evidence *beyond* them are deemed
        lost (IsLost) and excluded — unless they were retransmitted, in
        which case the retransmission is in flight and counts.
        """
        pipe = 0
        highest = self._highest_sacked
        for entry in self._inflight.values():
            if entry.sacked:
                continue
            end = seqnum.seq_add(entry.seq, entry.length())
            deemed_lost = entry.lost or (
                highest is not None and seqnum.seq_gt(highest, end)
            )
            if entry.retransmitted or not deemed_lost:
                pipe += entry.length()
        return pipe

    def _note_retransmission(self, entry: _Inflight) -> None:
        entry.retransmitted = True
        entry.send_time = self.sim.now
        # The scoreboard's send times are out of insertion order until
        # snd_una passes everything that was outstanding just now.
        self._resent_below = self.snd_nxt
        self.stats["retransmissions"] += 1

    def _retransmit_earliest(self) -> None:
        # First unsacked entry in insertion (== sequence) order.
        entry = next((e for e in self._inflight.values() if not e.sacked), None)
        if entry is None:
            return
        self._note_retransmission(entry)
        if entry.syn:
            if self.state == SYN_SENT:
                if self._syn_had_tfo and self._retries >= 2:
                    # TFO fallback (RFC 7413 section 4.1.3): a middlebox may
                    # be dropping SYNs that carry data or the TFO option —
                    # retry with a plain SYN.
                    self._send_queue[:0] = entry.data
                    self._inflight_bytes -= len(entry.data)
                    entry.data = b""
                    self.tfo_used = False
                    self._syn_had_tfo = False
                    self.snd_nxt = seqnum.seq_add(self.iss, 1)
                    plain_syn = TcpSegment(
                        src_port=self.local_port,
                        dst_port=self.remote_port,
                        seq=self.iss,
                        flags=Flags.SYN,
                        window=min(self.rcv_wnd_limit, 0xFFFF),
                        options=[
                            MaximumSegmentSize(mss=self.mss),
                            WindowScale(shift=self.rcv_ws_shift),
                            SackPermitted(),
                            Timestamps(value=self._ts_now(), echo_reply=0),
                        ],
                    )
                    self._syn = plain_syn
                    self.sent_syn_bytes = plain_syn.to_bytes(
                        self.local_addr, self.remote_addr
                    )
                # Retransmit the SYN exactly as (last) built.
                self._transmit(self._syn)
            else:
                syn_ack = self._make_segment(
                    flags=Flags.SYN | Flags.ACK, seq=entry.seq,
                    options=[
                        MaximumSegmentSize(mss=self.mss),
                        WindowScale(shift=self.rcv_ws_shift),
                    ],
                )
                self._transmit(syn_ack)
            return
        flags = Flags.ACK | (Flags.FIN if entry.fin else Flags.PSH)
        segment = self._make_segment(flags=flags, seq=entry.seq, payload=entry.data)
        self._transmit(segment)

    def _arm_persist_if_needed(self) -> None:
        if self.snd_wnd > 0 or self._persist_event is not None:
            return
        if not self._send_queue:
            return
        self._persist_event = self.sim.schedule(0.5, self._persist_probe)

    def _persist_probe(self) -> None:
        self._persist_event = None
        if self.state not in (ESTABLISHED, CLOSE_WAIT) or not self._send_queue:
            return
        if self.snd_wnd == 0:
            # One-byte window probe.
            probe = self._make_segment(
                flags=Flags.ACK | Flags.PSH,
                seq=self.snd_nxt,
                payload=bytes(self._send_queue[:1]),
            )
            self._transmit(probe)
            self._persist_event = self.sim.schedule(1.0, self._persist_probe)
        else:
            self._try_send()

    # ------------------------------------------------------------------
    # Option negotiation
    # ------------------------------------------------------------------

    def _negotiate_from_options(self, syn: TcpSegment) -> None:
        mss_option = find_option(syn.options, MaximumSegmentSize)
        if mss_option is not None:
            self.peer_mss = mss_option.mss
        ws_option = find_option(syn.options, WindowScale)
        self.snd_ws_shift = ws_option.shift if ws_option is not None else 0
        if ws_option is None:
            self.rcv_ws_shift = 0  # both sides must agree
        self.sack_enabled = find_option(syn.options, SackPermitted) is not None
        uto_option = find_option(syn.options, UserTimeout)
        if uto_option is not None:
            # Peer-advertised, so subject to the same local policy cap
            # as the secure-channel path: RFC 5482 lets the wire format
            # claim ~23 days.
            self.user_timeout = min(
                uto_option.timeout_seconds(), MAX_USER_TIMEOUT_SECONDS
            )

    def _ts_now(self) -> int:
        return int(self.sim.now * 1000) & 0xFFFFFFFF

    def __repr__(self) -> str:
        return (
            f"<TcpConnection {self.local_addr}:{self.local_port} -> "
            f"{self.remote_addr}:{self.remote_port} {self.state}>"
        )
