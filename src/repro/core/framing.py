"""TCPLS record framing: true types and control-frame codecs.

Figure 1 of the paper: every TCPLS record travels as an ordinary TLS 1.3
``application_data`` record; the *true* type (TType) is the trailing
byte of the encrypted payload, extending TLS 1.3's inner-content-type
mechanism.  A middlebox sees indistinguishable APPDATA records whether
they carry file data, a TCP option, an ACK, or eBPF bytecode.

Frame layout (all inside the AEAD-protected plaintext):

    [ session_seq u64 ][ frame body ... ][ TType u8 ]

``session_seq`` is the TCPLS sequence number of section 2.1 (0 means
"unsequenced": the frame is not replayed on failover and not ACKed).
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.utils.bytesio import NeedMoreData
from repro.utils.errors import decode_guard


def _armored(fn):
    """Fail-closed wrapper: any stray exception a frame-body decoder
    leaks (bad text encoding, arithmetic on lying fields) surfaces as a
    typed ``DecodeError`` naming the decoder."""

    @functools.wraps(fn)
    def wrapper(body: bytes):
        with decode_guard(fn.__name__):
            return fn(body)

    return wrapper


class TType:
    """True content types.  20-24 are standard TLS; 0x30+ are TCPLS."""

    ALERT = 21
    HANDSHAKE = 22
    APPDATA = 23  # plain TLS application data (non-TCPLS payloads)

    STREAM_DATA = 0x30
    TCP_OPTION = 0x31
    ACK = 0x32
    STREAM_OPEN = 0x33
    STREAM_CLOSE = 0x34
    JOIN_ACK = 0x35
    NEW_COOKIES = 0x36
    PLUGIN = 0x37
    PROBE = 0x38
    PROBE_REPORT = 0x39
    SESSION_CLOSE = 0x3A
    PING = 0x3B
    ADDRESS_ADVERT = 0x3C
    ADDRESS_REMOVE = 0x3D
    WINDOW_UPDATE = 0x3E

    RELIABLE = {
        STREAM_DATA,
        TCP_OPTION,
        STREAM_OPEN,
        STREAM_CLOSE,
        NEW_COOKIES,
        PLUGIN,
        PROBE,
        PROBE_REPORT,
        SESSION_CLOSE,
        ADDRESS_ADVERT,
        ADDRESS_REMOVE,
        WINDOW_UPDATE,
    }


@dataclass
class Frame:
    """A decoded TCPLS frame."""

    ttype: int
    seq: int
    body: bytes


# Every codec is one precompiled struct plus, for the frames that carry
# TLS-style opaque vectors, the vectors behind it.  A decoder reads
# fields in wire order and raises ``NeedMoreData`` at the first one the
# body is too short for, as a ``ByteReader`` would; bytes past the last
# field are ignored.
_U8, _U16, _U32, _U64 = (struct.Struct(f) for f in ("!B", "!H", "!I", "!Q"))
_STREAM_DATA = struct.Struct("!IQB")
_TCP_OPTION = struct.Struct("!BI")
_ACK = struct.Struct("!QI")
_U32_PAIR = struct.Struct("!II")
_U32_U64 = struct.Struct("!IQ")


def _fixed(layout: struct.Struct, body: bytes, offset: int = 0) -> tuple:
    if len(body) - offset < layout.size:
        raise NeedMoreData(
            f"wanted {layout.size} bytes, only {len(body) - offset} available"
        )
    return layout.unpack_from(body, offset)


def _vec(prefix: struct.Struct, data: bytes) -> bytes:
    """``data`` behind its length prefix (``ByteWriter.put_vec8``/``16``)."""
    if len(data) >> (8 * prefix.size):
        raise ValueError(f"vec{8 * prefix.size} payload too long")
    return prefix.pack(len(data)) + data


def _vec_at(prefix: struct.Struct, body: bytes, offset: int) -> Tuple[bytes, int]:
    """The opaque vector at ``offset`` and the offset just past it."""
    (length,) = _fixed(prefix, body, offset)
    start = offset + prefix.size
    if len(body) - start < length:
        raise NeedMoreData(f"wanted {length} bytes, only {len(body) - start} available")
    return body[start : start + length], start + length


def _vectors(
    prefix: struct.Struct, body: bytes, offset: int, encoding: Optional[str] = None
) -> Tuple[list, int]:
    """A u8 count, then that many vectors (decoded as text if asked)."""
    (count,) = _fixed(_U8, body, offset)
    offset += 1
    items = []
    for _ in range(count):
        item, offset = _vec_at(prefix, body, offset)
        items.append(item if encoding is None else item.decode(encoding))
    return items, offset


def encode_frame(ttype: int, seq: int, body: bytes) -> bytes:
    """Frame plaintext, minus the trailing TType byte (the record layer
    appends the inner type)."""
    return _U64.pack(seq) + body


def decode_frame(ttype: int, plaintext: bytes) -> Frame:
    with decode_guard("decode_frame"):
        return Frame(ttype, _fixed(_U64, plaintext)[0], plaintext[8:])


# ---------------------------------------------------------------------------
# Frame bodies
# ---------------------------------------------------------------------------


def encode_stream_data(stream_id: int, offset: int, data: bytes, fin: bool = False) -> bytes:
    return _STREAM_DATA.pack(stream_id, offset, 1 if fin else 0) + data


@_armored
def decode_stream_data(body: bytes) -> Tuple[int, int, bool, bytes]:
    stream_id, offset, fin = _fixed(_STREAM_DATA, body)
    return stream_id, offset, bool(fin), body[13:]


def encode_tcp_option(kind: int, option_body: bytes, apply_to_conn: int = 0) -> bytes:
    """A TCP option shipped over the secure channel (Figure 1)."""
    return _TCP_OPTION.pack(kind, apply_to_conn) + _vec(_U16, option_body)


@_armored
def decode_tcp_option(body: bytes) -> Tuple[int, int, bytes]:
    kind, conn = _fixed(_TCP_OPTION, body)
    return kind, conn, _vec_at(_U16, body, 5)[0]


def encode_ack(cumulative_seq: int, conn_id: int) -> bytes:
    return _ACK.pack(cumulative_seq, conn_id)


@_armored
def decode_ack(body: bytes) -> Tuple[int, int]:
    return _fixed(_ACK, body)


def encode_stream_open(stream_id: int, conn_id: int) -> bytes:
    return _U32_PAIR.pack(stream_id, conn_id)


@_armored
def decode_stream_open(body: bytes) -> Tuple[int, int]:
    return _fixed(_U32_PAIR, body)


def encode_stream_close(stream_id: int, final_offset: int) -> bytes:
    return _U32_U64.pack(stream_id, final_offset)


@_armored
def decode_stream_close(body: bytes) -> Tuple[int, int]:
    return _fixed(_U32_U64, body)


def encode_window_update(stream_id: int, max_offset: int) -> bytes:
    """Flow-control credit grant: the receiver permits stream bytes up
    to absolute offset ``max_offset``.  Grants are cumulative — a stale
    (smaller) limit never revokes credit, so replayed grants after a
    failover are harmless."""
    return _U32_U64.pack(stream_id, max_offset)


@_armored
def decode_window_update(body: bytes) -> Tuple[int, int]:
    return _fixed(_U32_U64, body)


def encode_join_ack(conn_index: int) -> bytes:
    return _U32.pack(conn_index)


def encode_new_cookies(cookies: List[bytes]) -> bytes:
    return _U8.pack(len(cookies)) + b"".join(_vec(_U8, cookie) for cookie in cookies)


@_armored
def decode_new_cookies(body: bytes) -> List[bytes]:
    return _vectors(_U8, body, 0)[0]


def encode_plugin(target: str, bytecode: bytes) -> bytes:
    return _vec(_U8, target.encode("ascii")) + _vec(_U16, bytecode)


@_armored
def decode_plugin(body: bytes) -> Tuple[str, bytes]:
    target, offset = _vec_at(_U8, body, 0)
    name = target.decode("ascii")
    return name, _vec_at(_U16, body, offset)[0]


def encode_probe(conn_id: int, syn_bytes: bytes) -> bytes:
    """SYN-echo middlebox probe (section 4.5): the SYN as we sent it."""
    return _U32.pack(conn_id) + _vec(_U16, syn_bytes)


@_armored
def decode_probe(body: bytes) -> Tuple[int, bytes]:
    return _fixed(_U32, body)[0], _vec_at(_U16, body, 4)[0]


def encode_probe_report(conn_id: int, differences: List[str]) -> bytes:
    return _U32.pack(conn_id) + _U8.pack(len(differences)) + b"".join(
        _vec(_U16, diff.encode("utf-8")) for diff in differences
    )


@_armored
def decode_probe_report(body: bytes) -> Tuple[int, List[str]]:
    (conn_id,) = _fixed(_U32, body)
    return conn_id, _vectors(_U16, body, 4, "utf-8")[0]


def encode_address_advert(v4_addresses: List[str], v6_addresses: List[str]) -> bytes:
    return b"".join(
        _U8.pack(len(family)) + b"".join(_vec(_U8, a.encode("ascii")) for a in family)
        for family in (v4_addresses, v6_addresses)
    )


@_armored
def decode_address_advert(body: bytes) -> Tuple[List[str], List[str]]:
    v4, offset = _vectors(_U8, body, 0, "ascii")
    return v4, _vectors(_U8, body, offset, "ascii")[0]


def encode_session_close(last_stream_id: int) -> bytes:
    return _U32.pack(last_stream_id)


@_armored
def decode_session_close(body: bytes) -> int:
    return _fixed(_U32, body)[0]
