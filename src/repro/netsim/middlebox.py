"""Programmable middleboxes, the antagonists of the paper.

Middleboxes install as link transformers (``Link.add_transformer``) and
operate on real TCP header bytes: they can strip options, rewrite
addresses (NAT), forge RSTs, mangle SYNs like a transparent proxy, or
block TCP Fast Open.  Because TLS record payloads are AEAD-protected,
none of them can touch the TCPLS control channel — which is exactly the
paper's argument for moving control data there.

Every box first peeks at the fixed TCP header
(:class:`~repro.tcp.segment.TcpHeaderPeek`) and only the packets it
actually rewrites pay for a full parse → mutate → reserialize round
trip; NAT and the payload corruptor skip even that by patching the raw
bytes in place and refreshing the checksum.  A packet the peek cannot
read (not TCP, truncated, lying data offset) passes through untouched.

The keyless attackers at the end of the module (``SegmentInjector``,
``PayloadTamperer``, ``RstBlaster``) are hostile rather than broken:
they forge, tamper and reset, and the session must survive them.
"""

from __future__ import annotations

import random
import struct

from typing import Callable, Iterable, List, Optional

from repro.netsim.packet import Datagram, PROTO_TCP
from repro.tcp.options import (
    KIND_FAST_OPEN,
    MaximumSegmentSize,
    TcpOption,
)
from repro.tcp.segment import Flags, TcpHeaderPeek, TcpSegment, patch_checksum
from repro.utils.errors import DecodeError


def _parse_tcp(datagram: Datagram) -> Optional[TcpSegment]:
    if datagram.protocol != PROTO_TCP:
        return None
    try:
        return TcpSegment.from_bytes(
            datagram.payload, datagram.src, datagram.dst, verify_checksum=False
        )
    except DecodeError:
        return None


def _peek_tcp(datagram: Datagram) -> Optional[TcpHeaderPeek]:
    """Fixed-header peek, or None for anything a full parse would also
    reject outright (not TCP, shorter than a header, bad data offset)."""
    if datagram.protocol != PROTO_TCP:
        return None
    return TcpHeaderPeek.of(datagram.payload)


def _reserialize(datagram: Datagram, segment: TcpSegment, **overrides) -> Datagram:
    src = overrides.get("src", datagram.src)
    dst = overrides.get("dst", datagram.dst)
    return datagram.copy(payload=segment.to_bytes(src, dst), **overrides)


class OptionStripper:
    """Removes TCP options of the given kinds — the classic extension killer.

    The paper cites measurements (Honda et al.) showing paths where
    middleboxes add, remove, or change TCP options; this models "remove".
    """

    def __init__(self, kinds: Iterable[int]) -> None:
        self.kinds = set(kinds)
        self.stripped_count = 0

    def __call__(self, datagram: Datagram):
        peek = _peek_tcp(datagram)
        if peek is None or not set(peek.option_kinds()) & self.kinds:
            return datagram  # nothing to strip: forward the bytes untouched
        segment = _parse_tcp(datagram)
        if segment is None:
            return datagram
        kept = [option for option in segment.options if option.kind not in self.kinds]
        if len(kept) == len(segment.options):
            return datagram
        self.stripped_count += len(segment.options) - len(kept)
        segment.options = kept
        return _reserialize(datagram, segment)


class RstInjector:
    """Forges a RST toward the receiver after a byte threshold on a flow.

    Models middleboxes that "force the termination of TCP connections by
    sending RST packets" (paper section 2.1, citing RFC 3360).  Installed
    on one direction; once triggered, the original packet is replaced by
    a forged RST carrying valid sequence numbers, and all later packets
    of that flow are dropped (the box has "terminated" the connection).
    """

    def __init__(self, trigger_bytes: int, match: Optional[Callable] = None) -> None:
        self.trigger_bytes = trigger_bytes
        self.match = match
        self.seen_bytes = 0
        self.fired = False

    def __call__(self, datagram: Datagram):
        if self.match is None:
            peek = _peek_tcp(datagram)
            if peek is None:
                return datagram
            self.seen_bytes += peek.payload_length
            if self.fired or self.seen_bytes < self.trigger_bytes:
                return datagram
            self.seen_bytes -= peek.payload_length  # recounted below
        segment = _parse_tcp(datagram)
        if segment is None:
            return datagram
        if self.match is not None and not self.match(datagram, segment):
            return datagram
        self.seen_bytes += len(segment.payload)
        if self.fired or self.seen_bytes < self.trigger_bytes:
            # After firing, traffic passes again: the victim's stack no
            # longer has the connection and answers with genuine RSTs,
            # which is how the other endpoint learns of the kill.
            return datagram
        self.fired = True
        rst = TcpSegment(
            src_port=segment.src_port,
            dst_port=segment.dst_port,
            seq=segment.seq,
            ack=segment.ack,
            flags=Flags.RST | Flags.ACK,
            window=0,
        )
        return [_reserialize(datagram, rst)]


class Nat44:
    """Source NAT for IPv4: rewrites (addr, port) to a public endpoint.

    Construct once, then install ``outbound`` on the private-to-public
    direction and ``inbound`` on the reverse one.  Port allocation is
    deterministic (sequential from ``base_port``).
    """

    def __init__(self, public_address, base_port: int = 40000) -> None:
        import ipaddress

        self.public_address = (
            ipaddress.ip_address(public_address)
            if isinstance(public_address, str)
            else public_address
        )
        self._next_port = base_port
        self._forward: dict = {}  # (private addr, private port) -> public port
        self._reverse: dict = {}  # public port -> (private addr, private port)
        self.translations = 0
        self.rebinds = 0

    def rebind(self) -> None:
        """Forget every mapping and move to a fresh port range.

        Models a NAT timeout/reboot (the classic middlebox failure the
        paper's JOIN mechanism recovers from): established flows lose
        their translation — subsequent inbound packets are unsolicited
        and dropped, outbound packets get a *new* public port the peer's
        stack won't recognise — while brand-new connections work fine.
        """
        self._forward.clear()
        self._reverse.clear()
        # Jump past the old range so recycled ports never alias dead flows.
        self._next_port += 1009
        self.rebinds += 1

    def outbound(self, datagram: Datagram):
        peek = _peek_tcp(datagram) if datagram.version == 4 else None
        if peek is None:
            return datagram
        # Raw rewrite: patch the source port bytes in place and refresh
        # the checksum — no parse, no option re-encode.
        key = (datagram.src, peek.src_port)
        if key not in self._forward:
            self._forward[key] = self._next_port
            self._reverse[self._next_port] = key
            self._next_port += 1
        public_port = self._forward[key]
        self.translations += 1
        buffer = bytearray(datagram.payload)
        struct.pack_into("!H", buffer, 0, public_port)
        patch_checksum(buffer, self.public_address, datagram.dst)
        return datagram.copy(payload=bytes(buffer), src=self.public_address)

    def inbound(self, datagram: Datagram):
        if datagram.version != 4 or datagram.dst != self.public_address:
            return datagram
        peek = _peek_tcp(datagram)
        if peek is None:
            return datagram
        mapping = self._reverse.get(peek.dst_port)
        if mapping is None:
            return None  # unsolicited inbound: NATs drop these
        private_addr, private_port = mapping
        self.translations += 1
        buffer = bytearray(datagram.payload)
        struct.pack_into("!H", buffer, 2, private_port)
        patch_checksum(buffer, datagram.src, private_addr)
        return datagram.copy(payload=bytes(buffer), dst=private_addr)


class TransparentProxyMangler:
    """Approximates a transparent TCP proxy's header rewriting.

    Real transparent proxies terminate and re-originate connections; the
    observable symptoms on the SYN are rewritten MSS, stripped
    unsupported options, and a different window.  Those symptoms are what
    TCPLS's SYN-echo detection (section 4.5) keys on, so we model them
    directly.
    """

    def __init__(self, clamp_mss: int = 1380, keep_kinds: Iterable[int] = (2,)) -> None:
        self.clamp_mss = clamp_mss
        self.keep_kinds = set(keep_kinds)
        self.mangled_syns = 0

    def __call__(self, datagram: Datagram):
        peek = _peek_tcp(datagram)
        if peek is None or not peek.is_syn:
            return datagram  # only SYNs are mangled; everything else passes
        segment = _parse_tcp(datagram)
        if segment is None:
            return datagram
        new_options: list[TcpOption] = []
        for option in segment.options:
            if option.kind not in self.keep_kinds:
                continue
            if isinstance(option, MaximumSegmentSize):
                option = MaximumSegmentSize(mss=min(option.mss, self.clamp_mss))
            new_options.append(option)
        segment.options = new_options
        segment.window = min(segment.window, 8192)
        self.mangled_syns += 1
        return _reserialize(datagram, segment)


class TfoBlocker:
    """Drops SYN segments that carry data or a Fast Open cookie option.

    Models the enterprise/wireless middleboxes that block TCP Fast Open
    (paper section 4.2, citing Paasch's NANOG measurements).
    """

    def __init__(self) -> None:
        self.blocked = 0

    def __call__(self, datagram: Datagram):
        # Never rewrites, so the peek answers everything.
        peek = _peek_tcp(datagram)
        if peek is not None and peek.is_syn and not peek.is_ack:
            if KIND_FAST_OPEN in peek.option_kinds() or peek.payload_length:
                self.blocked += 1
                return None
        return datagram


class PayloadCorruptor:
    """Flips a byte in every Nth TCP payload — tests AEAD protection.

    Any tampering inside a TLS record must surface as an authentication
    failure at the receiver, never as silently corrupted data.
    """

    def __init__(self, every: int = 1) -> None:
        self.every = every
        self._count = 0
        self.corrupted = 0

    def __call__(self, datagram: Datagram):
        peek = _peek_tcp(datagram)
        if peek is not None:
            if not peek.payload_length:
                return datagram
            self._count += 1
            if self._count % self.every:
                return datagram
            buffer = bytearray(datagram.payload)
            buffer[peek.data_offset + peek.payload_length // 2] ^= 0xFF
            self.corrupted += 1
            patch_checksum(buffer, datagram.src, datagram.dst)
            return datagram.copy(payload=bytes(buffer))
        if datagram.protocol == 17 and len(datagram.payload) > 9:
            # UDP: flip a byte inside the payload past the 8-byte header.
            self._count += 1
            if self._count % self.every:
                return datagram
            tampered = bytearray(datagram.payload)
            tampered[8 + (len(tampered) - 8) // 2] ^= 0xFF
            self.corrupted += 1
            return datagram.copy(payload=bytes(tampered))
        return datagram


# ---------------------------------------------------------------------------
# Keyless attackers: on-path or off-path adversaries without the TLS keys.
# They can make an established TCPLS session degrade (trip guards, fail a
# connection over) but never desync its delivered byte stream, crash an
# endpoint or break exactly-once delivery.  Each is count-bounded and
# draws only from its own seeded RNG, so attacked runs replay bit-for-bit.
# ---------------------------------------------------------------------------


class SegmentInjector:
    """Injects forged garbage segments into an established flow.

    Copies the flow's addressing from a passing segment (what an
    on-path observer sees in cleartext) and appends a forged segment
    whose payload is attacker-controlled bytes — mutated record
    headers, truncated records, plaintext junk.  Without the keys the
    forgery can't authenticate, so the receiver must reject it at the
    record/AEAD layer and survive.
    """

    def __init__(
        self,
        payloads: List[bytes],
        start_after: int = 3,
        every: int = 4,
        seed: int = 0,
    ) -> None:
        self.payloads = list(payloads)
        self.start_after = start_after
        self.every = every
        self.rng = random.Random(seed)
        self.seen = 0
        self.injected = 0

    def __call__(self, datagram: Datagram):
        segment = _parse_tcp(datagram)
        if segment is None or not segment.payload:
            return datagram
        self.seen += 1
        if self.injected >= len(self.payloads):
            return datagram
        if self.seen < self.start_after or self.seen % self.every:
            return datagram
        payload = self.payloads[self.injected]
        self.injected += 1
        # In-window sequence numbering: the forgery lands exactly where
        # the next genuine bytes would, the worst case for the victim.
        forged = TcpSegment(
            src_port=segment.src_port,
            dst_port=segment.dst_port,
            seq=(segment.seq + len(segment.payload)) & 0xFFFFFFFF,
            ack=segment.ack,
            flags=Flags.ACK | Flags.PSH,
            window=segment.window,
            payload=payload,
        )
        return [datagram, _reserialize(datagram, forged)]


class PayloadTamperer:
    """Rewrites bytes inside passing TCP payloads (MITM without keys).

    Unlike the middlebox ``PayloadCorruptor`` (one flipped byte, models
    corruption), this overwrites whole runs with attacker bytes and can
    target the record header region specifically — length lies on the
    outer record framing, the strongest thing a keyless MITM can do.
    Tampers exactly ``count`` segments then goes quiet, so the session's
    retry budget can recover.
    """

    def __init__(self, count: int = 3, start_after: int = 4, seed: int = 0) -> None:
        self.count = count
        self.start_after = start_after
        self.rng = random.Random(seed)
        self.seen = 0
        self.tampered = 0

    def __call__(self, datagram: Datagram):
        segment = _parse_tcp(datagram)
        if segment is None or not segment.payload:
            return datagram
        self.seen += 1
        if self.tampered >= self.count or self.seen < self.start_after:
            return datagram
        self.tampered += 1
        payload = bytearray(segment.payload)
        mode = self.rng.randrange(3)
        if mode == 0 and len(payload) >= 5:
            # Lie in the outer record length field (header bytes 3-4).
            payload[3] = self.rng.randrange(256)
            payload[4] = self.rng.randrange(256)
        elif mode == 1:
            start = self.rng.randrange(len(payload))
            end = min(len(payload), start + self.rng.randint(1, 32))
            for index in range(start, end):
                payload[index] = self.rng.randrange(256)
        else:
            payload[self.rng.randrange(len(payload))] ^= 0xFF
        segment.payload = bytes(payload)
        return _reserialize(datagram, segment)


class RstBlaster:
    """Off-path blind-RST attack (the classic TCP reset injection).

    Fires bursts of spoofed RST segments at the receiver using
    addressing cloned from observed traffic.  ``blind=True`` models a
    true off-path attacker guessing sequence numbers; ``blind=False``
    is the strongest case — every RST carries the exact next in-window
    sequence number, so the victim's TCP genuinely tears down and the
    TCPLS session must detect the reset and fail over.
    """

    def __init__(
        self,
        count: int = 4,
        start_after: int = 6,
        blind: bool = False,
        seed: int = 0,
    ) -> None:
        self.count = count
        self.start_after = start_after
        self.blind = blind
        self.rng = random.Random(seed)
        self.seen = 0
        self.fired = 0

    def __call__(self, datagram: Datagram):
        segment = _parse_tcp(datagram)
        if segment is None or not segment.payload:
            return datagram
        self.seen += 1
        if self.fired >= self.count or self.seen < self.start_after:
            return datagram
        self.fired += 1
        if self.blind:
            seq = self.rng.randrange(1 << 32)
        else:
            seq = (segment.seq + len(segment.payload)) & 0xFFFFFFFF
        rst = TcpSegment(
            src_port=segment.src_port,
            dst_port=segment.dst_port,
            seq=seq,
            ack=segment.ack,
            flags=Flags.RST | Flags.ACK,
            window=0,
        )
        return [datagram, _reserialize(datagram, rst)]


def junk_payloads(seed: int = 0, count: int = 6) -> List[bytes]:
    """Deterministic attacker payloads: record-shaped lies and raw noise."""
    rng = random.Random(seed)
    payloads: List[bytes] = []
    for index in range(count):
        kind = index % 3
        if kind == 0:
            # A plausible record header with a lying length, then junk.
            length = rng.randrange(1, 512)
            body = bytes(rng.randrange(256) for _ in range(rng.randrange(64)))
            payloads.append(bytes([23, 0x03, 0x03]) + length.to_bytes(2, "big") + body)
        elif kind == 1:
            # A plaintext handshake-type record after establishment.
            body = bytes(rng.randrange(256) for _ in range(rng.randint(4, 32)))
            payloads.append(
                bytes([22, 0x03, 0x03]) + len(body).to_bytes(2, "big") + body
            )
        else:
            payloads.append(bytes(rng.randrange(256) for _ in range(rng.randint(8, 96))))
    return payloads
