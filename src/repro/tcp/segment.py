"""TCP segment wire format (RFC 793) with a real Internet checksum.

Segments serialize to genuine header bytes so that middleboxes in
``repro.netsim.middlebox`` can observe and rewrite exactly what a
hardware middlebox would — the mechanism behind the paper's middlebox
interference and SYN-echo detection experiments (sections 2.1 and 4.5).

Serialization is built for the per-packet hot path:

- :func:`internet_checksum` folds the whole buffer through one big-int
  conversion instead of a Python loop over 16-bit words (``2^16 ≡ 1
  (mod 0xFFFF)``, so the byte string's big-endian value is congruent to
  its ones-complement word sum).  The RFC 1071 word loop is the
  readable specification the tests hold the folded form to on every
  input (``tests/references.py``).
- :meth:`TcpSegment.to_bytes` serializes into a single buffer with the
  checksum patched in place, and caches ``(src, dst, wire)`` on the
  segment.  Any header/payload attribute assignment invalidates the
  cache; :meth:`TcpSegment.from_bytes` seeds it with the original raw
  bytes (only when their checksum verifies), so parse → forward round
  trips are byte-identical *and* free.  So is send → receive: the
  datagram carries the segment, which the receiving stack takes for a
  parse while the datagram's bytes were never built, or while that
  cache holds the datagram's very bytes and addresses.
- :meth:`TcpSegment.to_datagram` carries a template segment unbuilt:
  its cache is ``(src, dst, None)`` until a reader of the datagram's
  payload builds it (:meth:`TcpSegment.as_sent`), and the first change
  to a wire field keeps the bytes the cache held or would have held as
  ``_as_sent``, which the datagram reads from then on.
- The one header shape an established connection emits outside SACK
  (Timestamps as the sole option) is a template: one ``struct`` pack on
  the way out, one unpack of the option block on the way in, the generic
  option codec for every other shape.
- :class:`TcpHeaderPeek` reads the fixed header fields straight out of a
  raw buffer so middleboxes can decide pass/rewrite without a full
  parse; :func:`patch_checksum` refreshes a raw segment they edited in
  place.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.netsim.packet import Datagram, IPAddress, PROTO_TCP
from repro.tcp.options import TcpOption, Timestamps, decode_options, encode_options
from repro.utils.errors import (
    InvalidValue,
    ProtocolViolation,
    TruncatedInput,
    decode_guard,
)


class Flags:
    """TCP flag bits."""

    FIN = 0x01
    SYN = 0x02
    RST = 0x04
    PSH = 0x08
    ACK = 0x10
    URG = 0x20
    ECE = 0x40
    CWR = 0x80

    @staticmethod
    def names(flags: int) -> str:
        parts = []
        for name in ("FIN", "SYN", "RST", "PSH", "ACK", "URG", "ECE", "CWR"):
            if flags & getattr(Flags, name):
                parts.append(name)
        return "|".join(parts) or "none"


def _fold(total: int) -> int:
    # total % 0xFFFF equals the fully folded word sum *except* when the
    # sum is a nonzero multiple of 0xFFFF, where the reference folding
    # loop settles on 0xFFFF rather than 0.
    folded = total % 0xFFFF
    if folded == 0 and total:
        folded = 0xFFFF
    return ~folded & 0xFFFF


def internet_checksum(data) -> int:
    """RFC 1071 ones-complement checksum over 16-bit big-endian words.

    One ``int.from_bytes`` then a single ``% 0xFFFF`` — since
    ``2^16 ≡ 1 (mod 0xFFFF)``, the big-endian integer value of the
    buffer is congruent to its 16-bit word sum.  Accepts any bytes-like
    object (odd lengths are handled by shifting, never by copying).
    """
    return internet_checksum_parts(data)


def internet_checksum_parts(*parts) -> int:
    """Checksum of the concatenation of ``parts`` without concatenating.

    Exact only while every part except the last has even length (so the
    16-bit word boundaries of the virtual concatenation are preserved) —
    true for the TCP pseudo-header, which is 12 bytes for IPv4 and 40
    for IPv6.
    """
    return _fold(sum(map(_word_sum, parts)))


def _word_sum(data) -> int:
    """An int congruent (mod 0xFFFF) to ``data``'s 16-bit word sum: its
    big-endian value, shifted when an odd length leaves half a word."""
    value = int.from_bytes(data, "big")
    return value << 8 if len(data) % 2 else value


#: (address class, src int, dst int) -> packed src||dst prefix.  The
#: packed form of an address pair never changes, so memoizing it saves
#: two ``packed`` conversions per checksum; keys hash as plain ints.
#: The addresses come off the wire, so the memo is emptied once it
#: holds ``_PSEUDO_PREFIX_MAX`` pairs: a spoofed-source spray cannot
#: grow it without bound.
_PSEUDO_PREFIX: dict = {}
_PSEUDO_PREFIX_MAX = 4096


def _pseudo_header(src: IPAddress, dst: IPAddress, tcp_length: int) -> bytes:
    key = (src.__class__, src._ip, dst._ip)
    prefix = _PSEUDO_PREFIX.get(key)
    if prefix is None:
        if len(_PSEUDO_PREFIX) >= _PSEUDO_PREFIX_MAX:
            _PSEUDO_PREFIX.clear()
        prefix = _PSEUDO_PREFIX[key] = src.packed + dst.packed
    if src.version == 4:
        return prefix + struct.pack("!BBH", 0, PROTO_TCP, tcp_length)
    return prefix + struct.pack("!IBBBB", tcp_length, 0, 0, 0, PROTO_TCP)


def _pseudo_sum(src: IPAddress, dst: IPAddress, tcp_length: int) -> int:
    """What the pseudo-header adds to the checksum, without building it:
    ``2^16 ≡ 1 (mod 0xFFFF)``, so an address's integer value is congruent
    to the sum of its 16-bit words, and so is IPv6's 32-bit length."""
    return src._ip + dst._ip + PROTO_TCP + tcp_length


def patch_checksum(buffer: bytearray, src: IPAddress, dst: IPAddress) -> None:
    """Recompute and patch the checksum of a raw TCP segment in place.

    For middleboxes that rewrite header bytes directly instead of going
    through parse → mutate → reserialize.
    """
    buffer[16:18] = b"\x00\x00"
    checksum = internet_checksum_parts(_pseudo_header(src, dst, len(buffer)), buffer)
    struct.pack_into("!H", buffer, 16, checksum)


class TcpHeaderPeek:
    """Fixed-offset view of a TCP header inside a raw buffer.

    Lets middleboxes inspect ports, flags, payload length and option
    kinds without building a :class:`TcpSegment` (no option decoding, no
    payload copy).  Read-only; rewriters copy the buffer and use
    :func:`patch_checksum`.
    """

    __slots__ = ("buffer", "src_port", "dst_port", "flags", "data_offset")

    @classmethod
    def of(cls, data) -> Optional["TcpHeaderPeek"]:
        """Peek at ``data``, or None when it cannot be a TCP segment."""
        if len(data) < 20:
            return None
        offset = (data[12] >> 4) * 4
        if offset < 20 or offset > len(data):
            return None
        peek = cls.__new__(cls)
        peek.buffer = data
        peek.src_port = (data[0] << 8) | data[1]
        peek.dst_port = (data[2] << 8) | data[3]
        peek.flags = data[13]
        peek.data_offset = offset
        return peek

    @property
    def payload_length(self) -> int:
        return len(self.buffer) - self.data_offset

    def has(self, flag: int) -> bool:
        return bool(self.flags & flag)

    @property
    def is_syn(self) -> bool:
        return self.has(Flags.SYN)

    @property
    def is_ack(self) -> bool:
        return self.has(Flags.ACK)

    def option_kinds(self) -> List[int]:
        """Option kind bytes present, scanned without decoding values."""
        kinds: List[int] = []
        data = self.buffer
        index = 20
        while index < self.data_offset:
            kind = data[index]
            if kind == 0:  # end of option list
                break
            kinds.append(kind)
            if kind == 1:  # NOP
                index += 1
                continue
            if index + 1 >= self.data_offset:
                break
            length = data[index + 1]
            if length < 2:
                break
            index += length
        return kinds


#: Attribute assignments that change the wire encoding drop the cache.
_WIRE_FIELDS = frozenset(
    {
        "src_port",
        "dst_port",
        "seq",
        "ack",
        "flags",
        "window",
        "options",
        "payload",
        "urgent",
    }
)


#: The template: the one header shape an established connection emits
#: outside SACK — data offset 8 words, option bytes ``08 0a <TSval>
#: <TSecr> 00 00``.  ``_serialize`` packs it in one go and ``from_bytes``
#: unpacks its option block in one go; every other shape takes the
#: generic option codec, which stays the specification.
_TS_SEGMENT = struct.Struct("!HHIIBBHHHHIIH")
_TS_OPTIONS = struct.Struct("!HIIH")
_TS_DATA_OFFSET = 8 << 4
_TS_HEADER_LENGTH = 32
_TS_KIND_LENGTH = 0x080A


@dataclass
class TcpSegment:
    """One TCP segment (header fields + payload)."""

    src_port: int
    dst_port: int
    seq: int = 0
    ack: int = 0
    flags: int = 0
    window: int = 65535
    options: List[TcpOption] = field(default_factory=list)
    payload: bytes = b""
    urgent: int = 0

    def __setattr__(self, name: str, value) -> None:
        # NOTE: mutating nested objects in place (appending to
        # ``segment.options`` or editing an option object) bypasses this
        # hook — rewriters must assign whole attributes, as every
        # middlebox in ``repro.netsim.middlebox`` does.
        if name in _WIRE_FIELDS:
            state = self.__dict__
            wire = state.get("_wire")
            if wire is not None and "_as_sent" not in state:
                # A datagram may carry this segment unbuilt: keep the
                # bytes it stands for.
                state["_as_sent"] = wire[2] or self._serialize(wire[0], wire[1])
            state["_wire"] = None
        object.__setattr__(self, name, value)

    def has(self, flag: int) -> bool:
        return bool(self.flags & flag)

    @property
    def is_syn(self) -> bool:
        return self.has(Flags.SYN)

    @property
    def is_ack(self) -> bool:
        return self.has(Flags.ACK)

    @property
    def is_fin(self) -> bool:
        return self.has(Flags.FIN)

    @property
    def is_rst(self) -> bool:
        return self.has(Flags.RST)

    def sequence_space(self) -> int:
        """Bytes of sequence space the segment occupies (SYN/FIN count 1)."""
        length = len(self.payload)
        if self.is_syn:
            length += 1
        if self.is_fin:
            length += 1
        return length

    # -- wire format -----------------------------------------------------

    def to_bytes(self, src: IPAddress, dst: IPAddress) -> bytes:
        cached: Optional[Tuple[IPAddress, IPAddress, Optional[bytes]]]
        cached = getattr(self, "_wire", None)
        if cached is not None and cached[2] is not None and cached[0] == src and cached[1] == dst:
            return cached[2]
        wire = self._serialize(src, dst)
        object.__setattr__(self, "_wire", (src, dst, wire))
        return wire

    def as_sent(self, src: IPAddress, dst: IPAddress) -> bytes:
        """The bytes a datagram carrying this segment unbuilt stands for:
        those it had before its first change (``_as_sent``), else
        :meth:`to_bytes`."""
        return self.__dict__.get("_as_sent") or self.to_bytes(src, dst)

    def to_datagram(self, src: IPAddress, dst: IPAddress) -> Datagram:
        """The datagram that sends this segment from ``src`` to ``dst``.

        The template shape is carried unbuilt, its wire length read off
        the header (``repro.netsim.packet``); every other shape is
        serialized now.
        """
        options = self.options
        if len(options) == 1 and options[0].__class__ is Timestamps:
            self.__dict__["_wire"] = (src, dst, None)
            return Datagram.originate(
                src, dst, PROTO_TCP, None, self, _TS_HEADER_LENGTH + len(self.payload)
            )
        return Datagram.originate(src, dst, PROTO_TCP, self.to_bytes(src, dst), self)

    def _serialize(self, src: IPAddress, dst: IPAddress) -> bytes:
        """Single-buffer serialization with the checksum patched in place."""
        options = self.options
        if len(options) == 1 and options[0].__class__ is Timestamps:
            # The template.  The header's 16- and 32-bit fields add into
            # the checksum as they are (2^32 ≡ 1 too): one pack, no
            # zero-checksum image to sum first.
            payload = self.payload
            seq, ack = self.seq & 0xFFFFFFFF, self.ack & 0xFFFFFFFF
            window = self.window & 0xFFFF
            value = options[0].value & 0xFFFFFFFF
            echo_reply = options[0].echo_reply & 0xFFFFFFFF
            checksum = _fold(
                _pseudo_sum(src, dst, 32 + len(payload))
                + self.src_port + self.dst_port + seq + ack
                + (_TS_DATA_OFFSET << 8 | self.flags) + window + self.urgent
                + _TS_KIND_LENGTH + value + echo_reply + _word_sum(payload)
            )
            return _TS_SEGMENT.pack(
                self.src_port, self.dst_port, seq, ack, _TS_DATA_OFFSET,
                self.flags, window, checksum, self.urgent,
                _TS_KIND_LENGTH, value, echo_reply, 0,
            ) + payload
        options_block = encode_options(options)
        header_length = 20 + len(options_block)
        buffer = bytearray(header_length + len(self.payload))
        struct.pack_into(
            "!HHIIBBHHH",
            buffer,
            0,
            self.src_port,
            self.dst_port,
            self.seq & 0xFFFFFFFF,
            self.ack & 0xFFFFFFFF,
            (header_length // 4) << 4,
            self.flags,
            self.window & 0xFFFF,
            0,  # checksum patched below
            self.urgent,
        )
        buffer[20:header_length] = options_block
        buffer[header_length:] = self.payload
        checksum = internet_checksum_parts(
            _pseudo_header(src, dst, len(buffer)), buffer
        )
        struct.pack_into("!H", buffer, 16, checksum)
        return bytes(buffer)

    @classmethod
    def from_bytes(
        cls,
        data: bytes,
        src: IPAddress = None,
        dst: IPAddress = None,
        verify_checksum: bool = True,
    ) -> "TcpSegment":
        with decode_guard("TCP segment"):
            if len(data) < 20:
                raise TruncatedInput("TCP segment shorter than minimum header")
            (
                src_port,
                dst_port,
                seq,
                ack,
                offset_flags_hi,
                flags,
                window,
                checksum,
                urgent,
            ) = struct.unpack("!HHIIBBHHH", data[:20])
            data_offset = (offset_flags_hi >> 4) * 4
            if data_offset < 20 or data_offset > len(data):
                raise InvalidValue(f"bad TCP data offset {data_offset}")
            checksum_ok = False
            if src is not None and dst is not None:
                # Verifies iff the sum folds to 0xFFFF; the pseudo-header
                # keeps it from being all zero.
                checksum_ok = (
                    _pseudo_sum(src, dst, len(data)) + _word_sum(data)
                ) % 0xFFFF == 0
                if verify_checksum and not checksum_ok:
                    raise ProtocolViolation("TCP checksum verification failed")
            options = None
            if offset_flags_hi == _TS_DATA_OFFSET:  # so data_offset == 32
                kind_length, value, echo_reply, padding = _TS_OPTIONS.unpack_from(
                    data, 20
                )
                if kind_length == _TS_KIND_LENGTH and not padding:
                    options = [Timestamps(value=value, echo_reply=echo_reply)]
            if options is None:
                options = decode_options(data[20:data_offset])
            # Receive-path construction bypasses the dataclass __init__
            # (nine __setattr__ calls per segment) and fills the instance
            # dict in one go, with exactly the field values the
            # constructor would set.  The wire cache is seeded with the
            # original bytes only when the checksum verified, so a
            # reserialize can never launder a corrupted checksum through
            # the cache.
            segment = object.__new__(cls)
            segment.__dict__.update(
                src_port=src_port,
                dst_port=dst_port,
                seq=seq,
                ack=ack,
                flags=flags,
                window=window,
                options=options,
                payload=data[data_offset:],
                urgent=urgent,
                _wire=(src, dst, bytes(data)) if checksum_ok else None,
            )
            return segment

    def summary(self) -> str:
        return (
            f"TCP {self.src_port}->{self.dst_port} [{Flags.names(self.flags)}] "
            f"seq={self.seq} ack={self.ack} len={len(self.payload)}"
        )
