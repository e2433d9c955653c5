"""F1 — Figure 1: a TLS record carrying a TCP option with trailing TType.

The figure shows a TCP User Timeout option inside an encrypted TLS
record: the outer record header claims APPDATA while the true type
(TType = TCP_OPTION) is the last byte of the protected plaintext.  This
test builds that record with the real stack, verifies the on-wire
layout byte by byte, and prints the annotated layout.
"""

from repro.core import framing
from repro.core.contexts import CONTROL_STREAM_ID
from repro.core.framing import TType
from repro.crypto.keyschedule import TrafficKeys
from repro.tcp.options import UserTimeout
from repro.tls.record import (
    CipherState,
    ContentType,
    RecordDecoder,
    record_header,
)
from repro.utils.bytesio import hexdump
from tests.helpers import report


def _build_record():
    """Seal a USER_TIMEOUT control frame exactly as the session does."""
    option = UserTimeout(granularity_minutes=False, timeout=30)
    body = framing.encode_tcp_option(option.kind, option.body(), apply_to_conn=0)
    plaintext = framing.encode_frame(TType.TCP_OPTION, 7, body)
    inner = plaintext + bytes([TType.TCP_OPTION])
    send = CipherState(TrafficKeys.from_secret(b"\x42" * 32))
    header = record_header(ContentType.APPLICATION_DATA, len(inner) + 16)
    sealed = send.aead.encrypt(send.next_nonce(), inner, header)
    send.advance()
    return option, plaintext, header + sealed


def test_fig1_wire_layout():
    option, plaintext, wire = _build_record()

    # --- outer layout: what a middlebox sees -------------------------------
    assert wire[0] == ContentType.APPLICATION_DATA  # opaque type = 23
    assert wire[1:3] == b"\x03\x03"  # legacy TLS 1.2 version
    length = int.from_bytes(wire[3:5], "big")
    assert length == len(wire) - 5
    ciphertext = wire[5:]
    assert bytes([TType.TCP_OPTION]) not in (
        wire[:5],
    )  # header leaks nothing about the true type

    # --- inner layout: what the endpoints see ------------------------------
    recv = CipherState(TrafficKeys.from_secret(b"\x42" * 32))
    ttype, recovered = RecordDecoder.decrypt_with(recv, ciphertext)
    assert ttype == TType.TCP_OPTION  # the trailing TType byte
    assert recovered == plaintext
    frame = framing.decode_frame(ttype, recovered)
    kind, conn, option_body = framing.decode_tcp_option(frame.body)
    assert kind == 28  # TCP User Timeout option kind (RFC 5482)
    assert frame.seq == 7  # TCPLS sequence number travels encrypted

    report(
        "Figure 1 — TLS record carrying a TCP option (on-wire layout)",
        [
            f"outer header : type=APPDATA(23) version=0x0303 length={length}",
            f"             : -> middlebox view: opaque application data",
            f"ciphertext   : {len(ciphertext)} bytes (AEAD: ChaCha20-Poly1305)",
            "inner layout : [seq u64][kind u8][conn u32][len u16][UTO value]"
            "[TType u8]",
            f"true type    : TType=TCP_OPTION({TType.TCP_OPTION:#04x}), "
            f"option kind=28 (User Timeout), timeout={option.timeout}s",
            "",
            "wire bytes:",
            hexdump(wire),
        ],
    )


def test_fig1_all_control_types_look_identical_on_wire():
    """Records of every TCPLS type are indistinguishable APPDATA outside."""
    send = CipherState(TrafficKeys.from_secret(b"\x13" * 32))
    outer_types = set()
    for ttype, body in [
        (TType.STREAM_DATA, framing.encode_stream_data(1, 0, b"data")),
        (TType.TCP_OPTION, framing.encode_tcp_option(28, b"\x00\x1e")),
        (TType.ACK, framing.encode_ack(10, 0)),
        (TType.PLUGIN, framing.encode_plugin("cc", b"\x00" * 8)),
        (TType.SESSION_CLOSE, framing.encode_session_close(1)),
    ]:
        inner = framing.encode_frame(ttype, 0, body) + bytes([ttype])
        header = record_header(ContentType.APPLICATION_DATA, len(inner) + 16)
        send.aead.encrypt(send.next_nonce(), inner, header)
        send.advance()
        outer_types.add(header[0])
    assert outer_types == {ContentType.APPLICATION_DATA}
