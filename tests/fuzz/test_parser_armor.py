"""Fail-closed parser armor: regression tests for the hardened decoders.

Each case here reproduces a concrete pre-hardening failure: a parser
that leaked ``struct.error``/``IndexError``, looped on a zero-length
option, or sliced past a lying length field.  The armored parsers must
reject all of them with the typed ``DecodeError`` hierarchy.
"""

import struct

import pytest

from repro.core import framing
from repro.core import join as joinmod
from repro.quic import packet as quicpkt
from repro.tcp.options import decode_options
from repro.tcp.segment import TcpSegment
from repro.tls import messages as m
from repro.utils.bytesio import NeedMoreData
from repro.utils.errors import (
    DecodeError,
    InvalidValue,
    LengthMismatch,
    MessageTooLarge,
    ProtocolViolation,
    TruncatedInput,
    UnknownType,
)


def test_error_hierarchy_is_fail_closed():
    """The whole decode-error family collapses into ProtocolViolation, so
    every existing ``except ProtocolViolation`` teardown site now also
    catches what used to leak (NeedMoreData most of all)."""
    assert issubclass(NeedMoreData, TruncatedInput)
    assert issubclass(TruncatedInput, DecodeError)
    assert issubclass(LengthMismatch, DecodeError)
    assert issubclass(InvalidValue, DecodeError)
    assert issubclass(UnknownType, DecodeError)
    assert issubclass(DecodeError, ProtocolViolation)


# -- TCP options (satellite: kind/length scanner) --------------------------


def test_zero_length_option_rejected():
    """kind=2 length=0: the old scanner subtracted 2 from the length and
    sliced with a negative size (fast path) — a silent misparse that
    could also loop.  Must be a typed rejection now."""
    with pytest.raises(InvalidValue):
        decode_options(b"\x02\x00\x05\xb4")


def test_length_one_option_rejected():
    with pytest.raises(InvalidValue):
        decode_options(b"\x03\x01\x07")


def test_option_length_overrunning_block_rejected():
    """kind=2 claiming 10 bytes with 1 present must raise (a DecodeError
    via NeedMoreData), never return a short body as if valid."""
    with pytest.raises(DecodeError):
        decode_options(b"\x02\x0a\x01")


def test_option_kind_without_length_byte_rejected():
    with pytest.raises(DecodeError):
        decode_options(b"\x02")


def test_valid_options_still_parse():
    options = decode_options(b"\x02\x04\x05\xb4\x01\x01\x00")
    assert options[0].mss == 1460


# -- TLS handshake framing (satellite: declared-length validation) ---------


def test_handshake_length_lie_rejected():
    """A u24 length larger than the remaining buffer used to slice short
    and feed a truncated body downstream; now it's a LengthMismatch."""
    with pytest.raises(LengthMismatch):
        m.parse_handshake_frames(b"\x01\x00\x40\x00" + b"\x00" * 16)


def test_handshake_oversize_claim_rejected():
    with pytest.raises(InvalidValue):
        m.parse_handshake_frames(b"\x01\xff\xff\xff" + b"\x00" * 8)


def test_handshake_dangling_header_rejected():
    with pytest.raises(LengthMismatch):
        m.parse_handshake_frames(b"\x02\x00\x00")


def test_extension_length_lie_rejected():
    """An extension whose body length overruns the extension block."""
    hello = m.ClientHello(
        random=bytes(32),
        extensions=[(m.EXT_SUPPORTED_VERSIONS, m.build_supported_versions_client())],
    ).to_bytes()
    # The last 2 bytes before the extension body are its length; lie.
    corrupted = bytearray(hello)
    position = len(corrupted) - len(m.build_supported_versions_client()) - 2
    corrupted[position : position + 2] = b"\x40\x00"
    with pytest.raises(DecodeError):
        for msg_type, body, _raw in m.parse_handshake_frames(bytes(corrupted)):
            m.ClientHello.from_body(body)


def test_key_share_truncated_key_rejected():
    # Entry claims a 32-byte X25519 key but supplies 8 bytes.
    body = struct.pack("!HHH", 2 + 2 + 2 + 8, 0x001D, 32) + b"\x00" * 8
    with pytest.raises(DecodeError):
        m.parse_key_share_client(body)


def test_server_name_length_lie_rejected():
    # list_len=5, name_type=0, name_len=64 with nothing behind it.
    with pytest.raises(DecodeError):
        m.parse_server_name(b"\x00\x05\x00\x00\x40")


def test_psk_offer_truncated_rejected():
    with pytest.raises(DecodeError):
        m.parse_psk_offer(b"\x00\x40\x00\x05abc")


def test_client_hello_body_garbage_is_typed():
    """from_body over noise must raise within the hierarchy (the old code
    leaked struct.error / IndexError from the byte reader)."""
    for size in (0, 1, 33, 40, 64):
        with pytest.raises(ProtocolViolation):
            m.ClientHello.from_body(b"\xfe" * size)


# -- TCPLS control frames ---------------------------------------------------


def test_truncated_frame_bodies_typed():
    for decoder in (
        framing.decode_stream_data,
        framing.decode_ack,
        framing.decode_stream_open,
        framing.decode_new_cookies,
        framing.decode_probe_report,
        framing.decode_address_advert,
    ):
        with pytest.raises(DecodeError):
            decoder(b"\x01")


def test_frame_seq_header_truncation_typed():
    with pytest.raises(DecodeError):
        framing.decode_frame(framing.TType.ACK, b"\x00\x01")


# -- JOIN / cookies ---------------------------------------------------------


def test_join_empty_credentials_rejected():
    with pytest.raises(InvalidValue):
        joinmod.parse_join_body(b"\x00\x00")


def test_tcpls_marker_bad_version_rejected():
    with pytest.raises(InvalidValue):
        joinmod.parse_tcpls_marker(b"\x07")


def test_server_params_truncated_cookie_list_typed():
    # Claims 5 cookies, provides none.
    with pytest.raises(DecodeError):
        joinmod.TcplsServerParams.from_bytes(b"\x04\xaa\xbb\xcc\xdd\x05")


# -- QUIC packets -----------------------------------------------------------


def test_quic_unknown_packet_type_rejected():
    with pytest.raises(UnknownType):
        quicpkt.parse_header(b"\x07" + b"\x00" * 16)


def test_quic_unknown_frame_type_rejected():
    with pytest.raises(UnknownType):
        quicpkt.decode_frames(b"\xfe")


def test_quic_truncated_frames_typed():
    with pytest.raises(DecodeError):
        quicpkt.decode_frames(bytes([quicpkt.FRAME_CRYPTO]) + b"\x00\x01")


# -- TCP segments -----------------------------------------------------------


def test_short_segment_rejected():
    with pytest.raises(TruncatedInput):
        TcpSegment.from_bytes(b"\x00" * 12)


def test_bad_data_offset_rejected():
    header = bytearray(20)
    header[12] = 0xF0  # data offset 60 > segment length
    with pytest.raises(InvalidValue):
        TcpSegment.from_bytes(bytes(header))


def test_record_oversize_length_is_decode_error():
    from repro.tls.record import RecordDecoder

    decoder = RecordDecoder()
    decoder.feed(b"\x17\x03\x03\xff\xff" + b"\x00" * 64)
    with pytest.raises(MessageTooLarge):
        list(decoder.raw_records())
