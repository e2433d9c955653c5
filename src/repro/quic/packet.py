"""Mini-QUIC wire format: packets and frames.

Packet layout (before protection)::

    [ type u8 | dcid vec8 | scid vec8 | packet_number u64 | frames... ]

The frame payload (everything after the packet number) is AEAD-sealed
with the epoch's key; the header is authenticated as associated data.
Three epochs: INITIAL (keys derived from the client's initial DCID, as
in real QUIC — obscures but does not secure), EARLY (0-RTT, keys from
the resumption PSK), and APP (keys from the TLS exporter).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from repro.crypto.aead import ChaCha20Poly1305
from repro.crypto.hkdf import hkdf_expand_label, hkdf_extract
from repro.utils.bytesio import ByteReader, ByteWriter
from repro.utils.errors import UnknownType, decode_guard

TYPE_INITIAL = 0x01
TYPE_EARLY = 0x02
TYPE_APP = 0x03

FRAME_PADDING = 0x00
FRAME_PING = 0x01
FRAME_ACK = 0x02
FRAME_CRYPTO = 0x06
FRAME_STREAM = 0x08
FRAME_PATH_CHALLENGE = 0x1A
FRAME_PATH_RESPONSE = 0x1B
FRAME_HANDSHAKE_DONE = 0x1E
FRAME_CONNECTION_CLOSE = 0x1C

MAX_DATAGRAM = 1200

_INITIAL_SALT = b"repro-quic-initial-salt-v1"


@dataclass
class AckFrame:
    ranges: List[Tuple[int, int]]  # inclusive (low, high), descending

    frame_type = FRAME_ACK

    def encode(self, writer: ByteWriter) -> None:
        writer.put_u8(FRAME_ACK)
        writer.put_u8(len(self.ranges))
        for low, high in self.ranges:
            writer.put_u64(low)
            writer.put_u64(high)


@dataclass
class CryptoFrame:
    offset: int
    data: bytes

    frame_type = FRAME_CRYPTO

    def encode(self, writer: ByteWriter) -> None:
        writer.put_u8(FRAME_CRYPTO)
        writer.put_u64(self.offset)
        writer.put_vec16(self.data)


@dataclass
class StreamFrame:
    stream_id: int
    offset: int
    data: bytes
    fin: bool = False

    frame_type = FRAME_STREAM

    def encode(self, writer: ByteWriter) -> None:
        writer.put_u8(FRAME_STREAM)
        writer.put_u32(self.stream_id)
        writer.put_u64(self.offset)
        writer.put_u8(1 if self.fin else 0)
        writer.put_vec16(self.data)


@dataclass
class PingFrame:
    frame_type = FRAME_PING

    def encode(self, writer: ByteWriter) -> None:
        writer.put_u8(FRAME_PING)


@dataclass
class PathChallengeFrame:
    token: bytes

    frame_type = FRAME_PATH_CHALLENGE

    def encode(self, writer: ByteWriter) -> None:
        writer.put_u8(FRAME_PATH_CHALLENGE)
        writer.put_bytes(self.token.ljust(8, b"\x00")[:8])


@dataclass
class PathResponseFrame:
    token: bytes

    frame_type = FRAME_PATH_RESPONSE

    def encode(self, writer: ByteWriter) -> None:
        writer.put_u8(FRAME_PATH_RESPONSE)
        writer.put_bytes(self.token.ljust(8, b"\x00")[:8])


@dataclass
class HandshakeDoneFrame:
    frame_type = FRAME_HANDSHAKE_DONE

    def encode(self, writer: ByteWriter) -> None:
        writer.put_u8(FRAME_HANDSHAKE_DONE)


@dataclass
class ConnectionCloseFrame:
    error_code: int = 0
    reason: str = ""

    frame_type = FRAME_CONNECTION_CLOSE

    def encode(self, writer: ByteWriter) -> None:
        writer.put_u8(FRAME_CONNECTION_CLOSE)
        writer.put_u16(self.error_code)
        writer.put_vec8(self.reason.encode("utf-8")[:255])


Frame = Union[
    AckFrame, CryptoFrame, StreamFrame, PingFrame,
    PathChallengeFrame, PathResponseFrame, HandshakeDoneFrame,
    ConnectionCloseFrame,
]

ACK_ELICITING = (
    FRAME_PING, FRAME_CRYPTO, FRAME_STREAM,
    FRAME_PATH_CHALLENGE, FRAME_PATH_RESPONSE, FRAME_HANDSHAKE_DONE,
)


def encode_frames(frames: List[Frame]) -> bytes:
    writer = ByteWriter()
    for frame in frames:
        frame.encode(writer)
    return writer.getvalue()


def decode_frames(data: bytes) -> List[Frame]:
    with decode_guard("quic.decode_frames"):
        return _decode_frames_inner(data)


def _decode_frames_inner(data: bytes) -> List[Frame]:
    reader = ByteReader(data)
    frames: List[Frame] = []
    while not reader.is_empty():
        frame_type = reader.get_u8()
        if frame_type == FRAME_PADDING:
            continue
        if frame_type == FRAME_PING:
            frames.append(PingFrame())
        elif frame_type == FRAME_ACK:
            count = reader.get_u8()
            ranges = [(reader.get_u64(), reader.get_u64()) for _ in range(count)]
            frames.append(AckFrame(ranges=ranges))
        elif frame_type == FRAME_CRYPTO:
            offset = reader.get_u64()
            frames.append(CryptoFrame(offset=offset, data=reader.get_vec16()))
        elif frame_type == FRAME_STREAM:
            stream_id = reader.get_u32()
            offset = reader.get_u64()
            fin = bool(reader.get_u8())
            frames.append(
                StreamFrame(
                    stream_id=stream_id, offset=offset,
                    data=reader.get_vec16(), fin=fin,
                )
            )
        elif frame_type == FRAME_PATH_CHALLENGE:
            frames.append(PathChallengeFrame(token=reader.get_bytes(8)))
        elif frame_type == FRAME_PATH_RESPONSE:
            frames.append(PathResponseFrame(token=reader.get_bytes(8)))
        elif frame_type == FRAME_HANDSHAKE_DONE:
            frames.append(HandshakeDoneFrame())
        elif frame_type == FRAME_CONNECTION_CLOSE:
            code = reader.get_u16()
            reason = reader.get_vec8().decode("utf-8", "replace")
            frames.append(ConnectionCloseFrame(error_code=code, reason=reason))
        else:
            raise UnknownType(f"unknown QUIC frame type {frame_type:#04x}")
    return frames


# ---------------------------------------------------------------------------
# Packet protection
# ---------------------------------------------------------------------------


class EpochKeys:
    """AEAD keys for one epoch and direction."""

    def __init__(self, secret: bytes) -> None:
        self.key = hkdf_expand_label(secret, "quic key", b"", 32)
        self.iv = hkdf_expand_label(secret, "quic iv", b"", 12)
        self.aead = ChaCha20Poly1305(self.key)

    def nonce(self, packet_number: int) -> bytes:
        pn = packet_number.to_bytes(12, "big")
        return bytes(a ^ b for a, b in zip(self.iv, pn))


def initial_secrets(dcid: bytes) -> Tuple[bytes, bytes]:
    """Derive (client, server) initial secrets from the DCID (RFC 9001 5.2)."""
    initial = hkdf_extract(_INITIAL_SALT, dcid)
    return (
        hkdf_expand_label(initial, "client in", b"", 32),
        hkdf_expand_label(initial, "server in", b"", 32),
    )


def early_secret(psk: bytes) -> bytes:
    return hkdf_expand_label(hkdf_extract(b"repro-quic-early", psk), "early", b"", 32)


def seal_packet(
    packet_type: int,
    dcid: bytes,
    scid: bytes,
    packet_number: int,
    frames: List[Frame],
    keys: EpochKeys,
) -> bytes:
    header = ByteWriter()
    header.put_u8(packet_type)
    header.put_vec8(dcid)
    header.put_vec8(scid)
    header.put_u64(packet_number)
    header_bytes = header.getvalue()
    plaintext = encode_frames(frames)
    sealed = keys.aead.encrypt(keys.nonce(packet_number), plaintext, header_bytes)
    return header_bytes + sealed


def parse_header(data: bytes) -> Tuple[int, bytes, bytes, int, bytes, bytes]:
    """Split a packet: (type, dcid, scid, pn, header_bytes, ciphertext)."""
    with decode_guard("quic.parse_header"):
        reader = ByteReader(data)
        packet_type = reader.get_u8()
        if packet_type not in (TYPE_INITIAL, TYPE_EARLY, TYPE_APP):
            raise UnknownType(f"unknown QUIC packet type {packet_type:#04x}")
        dcid = reader.get_vec8()
        scid = reader.get_vec8()
        packet_number = reader.get_u64()
        header_len = reader.offset
    return (
        packet_type, dcid, scid, packet_number,
        data[:header_len], data[header_len:],
    )


def open_packet(header_bytes: bytes, ciphertext: bytes, packet_number: int,
                keys: EpochKeys) -> List[Frame]:
    plaintext = keys.aead.decrypt(
        keys.nonce(packet_number), ciphertext, header_bytes
    )
    return decode_frames(plaintext)
