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

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import functools

from repro.utils.bytesio import ByteReader, ByteWriter
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

    def reader(self) -> ByteReader:
        return ByteReader(self.body)


def encode_frame(ttype: int, seq: int, body: bytes) -> bytes:
    """Frame plaintext, minus the trailing TType byte (the record layer
    appends the inner type)."""
    writer = ByteWriter()
    writer.put_u64(seq)
    writer.put_bytes(body)
    return writer.getvalue()


def decode_frame(ttype: int, plaintext: bytes) -> Frame:
    with decode_guard("decode_frame"):
        reader = ByteReader(plaintext)
        seq = reader.get_u64()
        return Frame(ttype=ttype, seq=seq, body=reader.get_rest())


# ---------------------------------------------------------------------------
# Frame bodies
# ---------------------------------------------------------------------------


def encode_stream_data(stream_id: int, offset: int, data: bytes, fin: bool = False) -> bytes:
    writer = ByteWriter()
    writer.put_u32(stream_id)
    writer.put_u64(offset)
    writer.put_u8(1 if fin else 0)
    writer.put_bytes(data)
    return writer.getvalue()


@_armored
def decode_stream_data(body: bytes) -> Tuple[int, int, bool, bytes]:
    reader = ByteReader(body)
    stream_id = reader.get_u32()
    offset = reader.get_u64()
    fin = bool(reader.get_u8())
    return stream_id, offset, fin, reader.get_rest()


def encode_tcp_option(kind: int, option_body: bytes, apply_to_conn: int = 0) -> bytes:
    """A TCP option shipped over the secure channel (Figure 1)."""
    writer = ByteWriter()
    writer.put_u8(kind)
    writer.put_u32(apply_to_conn)
    writer.put_vec16(option_body)
    return writer.getvalue()


@_armored
def decode_tcp_option(body: bytes) -> Tuple[int, int, bytes]:
    reader = ByteReader(body)
    kind = reader.get_u8()
    conn = reader.get_u32()
    return kind, conn, reader.get_vec16()


def encode_ack(cumulative_seq: int, conn_id: int) -> bytes:
    writer = ByteWriter()
    writer.put_u64(cumulative_seq)
    writer.put_u32(conn_id)
    return writer.getvalue()


@_armored
def decode_ack(body: bytes) -> Tuple[int, int]:
    reader = ByteReader(body)
    return reader.get_u64(), reader.get_u32()


def encode_stream_open(stream_id: int, conn_id: int) -> bytes:
    writer = ByteWriter()
    writer.put_u32(stream_id)
    writer.put_u32(conn_id)
    return writer.getvalue()


@_armored
def decode_stream_open(body: bytes) -> Tuple[int, int]:
    reader = ByteReader(body)
    return reader.get_u32(), reader.get_u32()


def encode_stream_close(stream_id: int, final_offset: int) -> bytes:
    writer = ByteWriter()
    writer.put_u32(stream_id)
    writer.put_u64(final_offset)
    return writer.getvalue()


@_armored
def decode_stream_close(body: bytes) -> Tuple[int, int]:
    reader = ByteReader(body)
    return reader.get_u32(), reader.get_u64()


def encode_window_update(stream_id: int, max_offset: int) -> bytes:
    """Flow-control credit grant: the receiver permits stream bytes up
    to absolute offset ``max_offset``.  Grants are cumulative — a stale
    (smaller) limit never revokes credit, so replayed grants after a
    failover are harmless."""
    writer = ByteWriter()
    writer.put_u32(stream_id)
    writer.put_u64(max_offset)
    return writer.getvalue()


@_armored
def decode_window_update(body: bytes) -> Tuple[int, int]:
    reader = ByteReader(body)
    return reader.get_u32(), reader.get_u64()


def encode_join_ack(conn_index: int) -> bytes:
    writer = ByteWriter()
    writer.put_u32(conn_index)
    return writer.getvalue()


def encode_new_cookies(cookies: List[bytes]) -> bytes:
    writer = ByteWriter()
    writer.put_u8(len(cookies))
    for cookie in cookies:
        writer.put_vec8(cookie)
    return writer.getvalue()


@_armored
def decode_new_cookies(body: bytes) -> List[bytes]:
    reader = ByteReader(body)
    return [reader.get_vec8() for _ in range(reader.get_u8())]


def encode_plugin(target: str, bytecode: bytes) -> bytes:
    writer = ByteWriter()
    writer.put_vec8(target.encode("ascii"))
    writer.put_vec16(bytecode)
    return writer.getvalue()


@_armored
def decode_plugin(body: bytes) -> Tuple[str, bytes]:
    reader = ByteReader(body)
    return reader.get_vec8().decode("ascii"), reader.get_vec16()


def encode_probe(conn_id: int, syn_bytes: bytes) -> bytes:
    """SYN-echo middlebox probe (section 4.5): the SYN as we sent it."""
    writer = ByteWriter()
    writer.put_u32(conn_id)
    writer.put_vec16(syn_bytes)
    return writer.getvalue()


@_armored
def decode_probe(body: bytes) -> Tuple[int, bytes]:
    reader = ByteReader(body)
    return reader.get_u32(), reader.get_vec16()


def encode_probe_report(conn_id: int, differences: List[str]) -> bytes:
    writer = ByteWriter()
    writer.put_u32(conn_id)
    writer.put_u8(len(differences))
    for diff in differences:
        writer.put_vec16(diff.encode("utf-8"))
    return writer.getvalue()


@_armored
def decode_probe_report(body: bytes) -> Tuple[int, List[str]]:
    reader = ByteReader(body)
    conn_id = reader.get_u32()
    return conn_id, [
        reader.get_vec16().decode("utf-8") for _ in range(reader.get_u8())
    ]


def encode_address_advert(v4_addresses: List[str], v6_addresses: List[str]) -> bytes:
    writer = ByteWriter()
    writer.put_u8(len(v4_addresses))
    for address in v4_addresses:
        writer.put_vec8(address.encode("ascii"))
    writer.put_u8(len(v6_addresses))
    for address in v6_addresses:
        writer.put_vec8(address.encode("ascii"))
    return writer.getvalue()


@_armored
def decode_address_advert(body: bytes) -> Tuple[List[str], List[str]]:
    reader = ByteReader(body)
    v4 = [reader.get_vec8().decode("ascii") for _ in range(reader.get_u8())]
    v6 = [reader.get_vec8().decode("ascii") for _ in range(reader.get_u8())]
    return v4, v6


def encode_session_close(last_stream_id: int) -> bytes:
    writer = ByteWriter()
    writer.put_u32(last_stream_id)
    return writer.getvalue()


@_armored
def decode_session_close(body: bytes) -> int:
    return ByteReader(body).get_u32()
