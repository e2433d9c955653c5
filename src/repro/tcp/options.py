"""TCP options: the kind/length/value encodings from the RFCs.

The 40-byte option-space ceiling that motivates TCPLS section 3.1 is
enforced here for real: ``encode_options`` raises if the assembled option
block exceeds what a TCP header can carry.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List, Tuple

from repro.utils.bytesio import NeedMoreData
from repro.utils.errors import InvalidValue, ProtocolViolation, decode_guard

KIND_EOL = 0
KIND_NOP = 1
KIND_MSS = 2
KIND_WINDOW_SCALE = 3
KIND_SACK_PERMITTED = 4
KIND_SACK = 5
KIND_TIMESTAMPS = 8
KIND_USER_TIMEOUT = 28
KIND_FAST_OPEN = 34
KIND_EXPERIMENTAL = 254

MAX_OPTION_SPACE = 40  # TCP header is at most 60 bytes, 20 are fixed.


@dataclass(frozen=True)
class TcpOption:
    """Base class; concrete options define ``kind`` and a body codec."""

    kind: int = field(init=False, default=-1)

    def body(self) -> bytes:
        raise NotImplementedError


@dataclass(frozen=True)
class NoOperation(TcpOption):
    kind = KIND_NOP

    def body(self) -> bytes:
        return b""


@dataclass(frozen=True)
class MaximumSegmentSize(TcpOption):
    kind = KIND_MSS
    mss: int = 1460

    def body(self) -> bytes:
        return self.mss.to_bytes(2, "big")


@dataclass(frozen=True)
class WindowScale(TcpOption):
    kind = KIND_WINDOW_SCALE
    shift: int = 7

    def body(self) -> bytes:
        return bytes([self.shift])


@dataclass(frozen=True)
class SackPermitted(TcpOption):
    kind = KIND_SACK_PERMITTED

    def body(self) -> bytes:
        return b""


@dataclass(frozen=True)
class SackBlocks(TcpOption):
    """SACK option (RFC 2018); each block is a (left, right) seq range."""

    kind = KIND_SACK
    blocks: Tuple[Tuple[int, int], ...] = ()

    def body(self) -> bytes:
        return b"".join(
            struct.pack("!II", left & 0xFFFFFFFF, right & 0xFFFFFFFF)
            for left, right in self.blocks
        )


@dataclass(frozen=True)
class Timestamps(TcpOption):
    kind = KIND_TIMESTAMPS
    value: int = 0
    echo_reply: int = 0

    def body(self) -> bytes:
        return struct.pack(
            "!II", self.value & 0xFFFFFFFF, self.echo_reply & 0xFFFFFFFF
        )


#: Local policy cap on a peer-advertised user timeout (RFC 5482 §4.1
#: requires honoring local limits).  The wire format can express up to
#: 32767 minutes (~23 days); accepting that verbatim lets a peer pin
#: connection state nearly forever, so anything above an hour is
#: clamped at the point the option is applied.
MAX_USER_TIMEOUT_SECONDS = 3600.0


@dataclass(frozen=True)
class UserTimeout(TcpOption):
    """TCP User Timeout option (RFC 5482): granularity flag + 15-bit value.

    This is the option the TCPLS prototype carries over the secure
    channel instead of the TCP header (paper section 3.1).
    """

    kind = KIND_USER_TIMEOUT
    granularity_minutes: bool = False
    timeout: int = 0  # seconds or minutes per the granularity flag

    def body(self) -> bytes:
        if not 0 <= self.timeout < (1 << 15):
            raise ValueError("user timeout must fit in 15 bits")
        value = (int(self.granularity_minutes) << 15) | self.timeout
        return value.to_bytes(2, "big")

    def timeout_seconds(self) -> float:
        return self.timeout * (60.0 if self.granularity_minutes else 1.0)


@dataclass(frozen=True)
class FastOpenCookie(TcpOption):
    """TCP Fast Open option (RFC 7413): empty = cookie request."""

    kind = KIND_FAST_OPEN
    cookie: bytes = b""

    def body(self) -> bytes:
        if len(self.cookie) > 16:
            raise ValueError("TFO cookie longer than 16 bytes")
        return self.cookie


@dataclass(frozen=True)
class RawOption(TcpOption):
    """Catch-all for unknown kinds so middlebox tests can round-trip them."""

    raw_kind: int = KIND_EXPERIMENTAL
    data: bytes = b""

    @property
    def kind(self) -> int:  # type: ignore[override]
        return self.raw_kind

    def body(self) -> bytes:
        return self.data


def encode_options(options: List[TcpOption]) -> bytes:
    """Serialize options with NOP-free padding to a 4-byte boundary.

    Runs once per transmitted segment: a parts list joined once.
    """
    parts: List[bytes] = []
    length = 0
    for option in options:
        if isinstance(option, NoOperation):
            parts.append(b"\x01")
            length += 1
            continue
        body = option.body()
        parts.append(bytes((option.kind, 2 + len(body))))
        parts.append(body)
        length += 2 + len(body)
    if length > MAX_OPTION_SPACE:
        raise ProtocolViolation(
            f"TCP options exceed the 40-byte header budget ({length}B)"
        )
    parts.append(b"\x00" * ((-length) % 4))
    return b"".join(parts)


def decode_options(data: bytes) -> List[TcpOption]:
    """Parse an option block back into option objects.

    Index-based scan (this runs once per received segment); truncated
    buffers raise ``NeedMoreData`` like every ``ByteReader`` parser.

    Fail-closed rules: a kind/length option whose length byte is 0 or 1
    is rejected (a zero-length option would loop the scan forever), and
    a length that runs past the end of the option block is rejected
    instead of silently misparsing the tail.
    """
    with decode_guard("TCP option block"):
        options: List[TcpOption] = []
        offset, end = 0, len(data)
        while offset < end:
            kind = data[offset]
            offset += 1
            if kind == KIND_EOL:
                break
            if kind == KIND_NOP:
                options.append(NoOperation())
                continue
            if offset >= end:
                raise NeedMoreData("wanted 1 bytes, only 0 available")
            length = data[offset]
            offset += 1
            if length < 2:
                raise InvalidValue(f"TCP option kind {kind} with length {length}")
            body = bytes(data[offset : offset + length - 2])
            if len(body) != length - 2:
                raise NeedMoreData(
                    f"wanted {length - 2} bytes, only {len(body)} available"
                )
            offset += length - 2
            options.append(_decode_one(kind, body))
        return options


def _decode_one(kind: int, body: bytes) -> TcpOption:
    with decode_guard(f"TCP option kind {kind}"):
        return _decode_one_inner(kind, body)


def _decode_one_inner(kind: int, body: bytes) -> TcpOption:
    if kind == KIND_MSS and len(body) == 2:
        return MaximumSegmentSize(mss=int.from_bytes(body, "big"))
    if kind == KIND_WINDOW_SCALE and len(body) == 1:
        return WindowScale(shift=body[0])
    if kind == KIND_SACK_PERMITTED and not body:
        return SackPermitted()
    if kind == KIND_SACK and len(body) % 8 == 0:
        words = struct.unpack(f"!{len(body) // 4}I", body)
        blocks = tuple(
            (words[i], words[i + 1]) for i in range(0, len(words), 2)
        )
        return SackBlocks(blocks=blocks)
    if kind == KIND_TIMESTAMPS and len(body) == 8:
        value, echo = struct.unpack("!II", body)
        return Timestamps(value=value, echo_reply=echo)
    if kind == KIND_USER_TIMEOUT and len(body) == 2:
        value = int.from_bytes(body, "big")
        return UserTimeout(
            granularity_minutes=bool(value >> 15), timeout=value & 0x7FFF
        )
    if kind == KIND_FAST_OPEN and len(body) <= 16:
        return FastOpenCookie(cookie=body)
    return RawOption(raw_kind=kind, data=body)


def decode_single_option(kind: int, body: bytes) -> TcpOption:
    """Decode one option from its kind and body (no kind/len framing)."""
    return _decode_one(kind, body)


def find_option(options: List[TcpOption], option_type: type):
    """Return the first option of the given type, or None."""
    for option in options:
        if isinstance(option, option_type):
            return option
    return None
