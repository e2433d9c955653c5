"""The parser campaign: every wire format the stack decodes fails closed.

A parser handed attacker bytes either parses them or raises inside
``ALLOWED_EXCEPTIONS`` (the typed ``ProtocolViolation`` hierarchy, the
TLS layers' ``TlsAlertError`` teardown signal, ``CryptoError``).  That
contract is the body of every test below: any other exception
(``struct.error``, ``IndexError``, ``RecursionError``...) fails the
test, and hypothesis shrinks the input and prints it.  The profile in
``tests/conftest.py`` is derandomized, so the campaign is a function of
the commit.

Each of the seven formats runs every committed seed verbatim, then 300
draws of ``wire_inputs``: a seed with one or two mutation steps applied,
or plain ``st.binary()``.  The seeds are built with the stack's own
encoders, so they stay in sync with the wire formats.  Each step models
one thing a hostile peer or broken middlebox does to wire bytes; the
middle column names the seeded-RNG mutator of the former in-package
campaign that each step replaces:

==================  ===================  ====================================
step                replaces             what it does
==================  ===================  ====================================
``truncate``        ``truncate``         cut the buffer short
``bit_flip``        ``bit_flip``         flip one to eight bits
``length_lie``      ``length_lie``       overwrite a 1/2/3-byte run
``oversize_claim``  ``oversize_claim``   saturate a 1/2/3-byte run with 0xFF
``duplicate``       ``duplicate_slice``  repeat a chunk in place
``reorder``         ``reorder_slices``   swap two adjacent chunks
``insert``          ``insert_garbage``   splice 1-16 arbitrary bytes in
``delete``          ``delete_slice``     remove a chunk
``zero_fill``       ``zero_fill``        zero a run
==================  ===================  ====================================
"""

import ipaddress
from typing import Callable, Dict, List, Optional

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from repro.core import framing
from repro.core.frames import HANDLERS
from repro.core import join as joinmod
from repro.core.framing import TType
from repro.quic import packet as quicpkt
from repro.tcp.options import (
    FastOpenCookie,
    MaximumSegmentSize,
    NoOperation,
    SackBlocks,
    SackPermitted,
    Timestamps,
    UserTimeout,
    WindowScale,
    decode_options,
    encode_options,
)
from repro.tcp.segment import Flags, TcpSegment
from repro.tls import messages as m
from repro.tls.alerts import TlsAlertError
from repro.tls.record import ContentType, RecordDecoder, record_header
from repro.utils.bytesio import ByteWriter
from repro.utils.errors import CryptoError, ProtocolViolation

ALLOWED_EXCEPTIONS = (ProtocolViolation, TlsAlertError, CryptoError)

# ---------------------------------------------------------------------------
# Seeds: well-formed exemplars of every format, plus hand-built regressions
# for parser bugs the hardening fixed (their exact bytes stay in the run).
# ---------------------------------------------------------------------------


def _tcp_segment_seeds() -> List[bytes]:
    src = ipaddress.ip_address("10.0.0.1")
    dst = ipaddress.ip_address("10.0.0.2")
    segments = [
        TcpSegment(
            src_port=40000,
            dst_port=443,
            seq=1000,
            flags=Flags.SYN,
            options=[
                MaximumSegmentSize(mss=1460),
                SackPermitted(),
                WindowScale(shift=7),
                Timestamps(value=111, echo_reply=0),
                FastOpenCookie(cookie=b"\xaa" * 8),
            ],
        ),
        TcpSegment(
            src_port=40000,
            dst_port=443,
            seq=1001,
            ack=2001,
            flags=Flags.ACK | Flags.PSH,
            payload=b"\x17\x03\x03\x00\x05hello",
        ),
        TcpSegment(
            src_port=443, dst_port=40000, seq=2001, ack=1001,
            flags=Flags.RST | Flags.ACK, window=0,
        ),
        TcpSegment(
            src_port=1,
            dst_port=2,
            flags=Flags.FIN | Flags.ACK,
            options=[NoOperation(), Timestamps(value=5, echo_reply=6)],
            payload=b"x" * 64,
        ),
    ]
    return [segment.to_bytes(src, dst) for segment in segments]


def _tcp_option_seeds() -> List[bytes]:
    return [
        encode_options([MaximumSegmentSize(mss=1460), SackPermitted(), WindowScale(shift=7)]),
        encode_options([
            Timestamps(value=123456, echo_reply=654321),
            SackBlocks(blocks=((100, 200), (300, 400))),
        ]),
        encode_options([
            UserTimeout(granularity_minutes=True, timeout=30),
            FastOpenCookie(cookie=b"\x01\x02\x03\x04\x05\x06\x07\x08"),
            NoOperation(),
        ]),
        # Regression: a kind/length option with length 0 used to loop
        # the scanner; it must raise a typed DecodeError instead.
        b"\x02\x00\x05\xb4",
        # Regression: length 1 (header shorter than the length field).
        b"\x03\x01\x07",
        # Regression: declared length overruns the option block.
        b"\x02\x0a\x01",
        b"\x08\x0a\x00\x01\x02\x03",
    ]


def _tls_handshake_seeds() -> List[bytes]:
    client_hello = m.ClientHello(
        random=bytes(range(32)),
        session_id=b"\x07" * 8,
        extensions=[
            (m.EXT_SUPPORTED_VERSIONS, m.build_supported_versions_client()),
            (m.EXT_KEY_SHARE, m.build_key_share_client(b"\x11" * 32)),
            (m.EXT_SERVER_NAME, m.build_server_name("example.com")),
            (m.EXT_TCPLS, joinmod.build_tcpls_marker()),
            (m.EXT_PRE_SHARED_KEY, m.build_psk_offer(b"ticket-id", 1234, 32)),
        ],
    )
    server_hello = m.ServerHello(
        random=bytes(reversed(range(32))),
        session_id=b"\x07" * 8,
        extensions=[
            (m.EXT_SUPPORTED_VERSIONS, m.build_supported_versions_server()),
            (m.EXT_KEY_SHARE, m.build_key_share_server(b"\x22" * 32)),
        ],
    )
    return [
        client_hello.to_bytes(),
        server_hello.to_bytes(),
        # A two-message flight: coalesced handshake records are the
        # common case on the wire.
        server_hello.to_bytes() + m.frame_handshake(m.ENCRYPTED_EXTENSIONS, b"\x00\x00"),
        m.frame_handshake(m.FINISHED, b"\x5a" * 32),
        m.frame_handshake(m.KEY_UPDATE, b"\x01"),
        # Regression: a declared u24 length larger than the buffer.
        b"\x01\x00\x40\x00" + b"\x00" * 16,
        # Regression: dangling 3-byte header fragment.
        b"\x02\x00\x00",
    ]


def _tls_record_seeds() -> List[bytes]:
    handshake = _tls_handshake_seeds()[0]
    return [
        record_header(ContentType.HANDSHAKE, len(handshake)) + handshake,
        record_header(ContentType.ALERT, 2) + b"\x02\x32",
        record_header(ContentType.APPLICATION_DATA, 24) + b"\xc5" * 24,
        # Coalesced records in one buffer.
        (record_header(ContentType.APPLICATION_DATA, 8) + b"\x9f" * 8) * 3,
        # Regression: header claiming more than the record-size limit.
        record_header(ContentType.APPLICATION_DATA, 0xFFFF) + b"\x00" * 32,
    ]


def _tcpls_frame_seeds() -> List[bytes]:
    # Layout matches what the session's dispatch sees after record
    # decryption: one leading TType byte, then seq-prefixed plaintext.
    bodies = [
        (TType.STREAM_DATA, framing.encode_stream_data(2, 4096, b"payload", fin=True)),
        (TType.STREAM_OPEN, framing.encode_stream_open(2, 1)),
        (TType.STREAM_CLOSE, framing.encode_stream_close(2, 8192)),
        (TType.ACK, framing.encode_ack(77, 1)),
        (TType.TCP_OPTION, framing.encode_tcp_option(28, b"\x80\x1e", 1)),
        (TType.JOIN_ACK, framing.encode_join_ack(2)),
        (TType.NEW_COOKIES, framing.encode_new_cookies([b"\xab" * 16, b"\xcd" * 16])),
        (TType.PLUGIN, framing.encode_plugin("bpf.cc", b"\x00\x01\x02\x03")),
        (TType.PROBE, framing.encode_probe(1, b"\x45" * 20)),
        (TType.PROBE_REPORT, framing.encode_probe_report(1, ["mss", "window"])),
        (TType.ADDRESS_ADVERT, framing.encode_address_advert(["10.0.1.1"], ["fd00::1"])),
        (TType.ADDRESS_REMOVE, framing.encode_address_advert(["10.0.1.1"], [])),
        (TType.WINDOW_UPDATE, framing.encode_window_update(2, 1 << 20)),
        (TType.SESSION_CLOSE, framing.encode_session_close(4)),
        (TType.PING, b""),
    ]
    return [
        bytes([ttype]) + framing.encode_frame(ttype, seq, body)
        for seq, (ttype, body) in enumerate(bodies, start=1)
    ]


def _join_seeds() -> List[bytes]:
    params = joinmod.TcplsServerParams(
        connection_id=b"\x42" * 16,
        cookies=[b"\x10" * 16, b"\x20" * 16],
        v4_addresses=["10.0.0.1", "192.168.1.1"],
        v6_addresses=["fd00::1"],
    )
    return [
        joinmod.build_tcpls_marker(),
        params.to_bytes(),
        joinmod.build_join_body(b"\x42" * 16, b"\x10" * 16),
        # Regression: empty CONNID / cookie must be rejected, not
        # accepted as a zero-length credential.
        b"\x00\x00",
    ]


def _quic_packet_seeds() -> List[bytes]:
    def header(ptype: int, dcid: bytes, scid: bytes, pn: int) -> bytes:
        writer = ByteWriter()
        writer.put_u8(ptype)
        writer.put_vec8(dcid)
        writer.put_vec8(scid)
        writer.put_u64(pn)
        return writer.getvalue()

    return [
        header(quicpkt.TYPE_INITIAL, b"\xd1" * 8, b"\x51" * 8, 0) + b"\xee" * 48,
        header(quicpkt.TYPE_EARLY, b"\xd1" * 8, b"", 1) + b"\xee" * 32,
        header(quicpkt.TYPE_APP, b"\xd1" * 8, b"\x51" * 8, 7) + b"\xee" * 64,
        # Frame plaintexts (what decode_frames sees post-decrypt).
        quicpkt.encode_frames([
            quicpkt.PingFrame(),
            quicpkt.CryptoFrame(offset=0, data=b"\x01\x02\x03"),
            quicpkt.StreamFrame(stream_id=4, offset=0, data=b"req", fin=True),
        ]),
        quicpkt.encode_frames([quicpkt.AckFrame(ranges=[(7, 9), (1, 3)])]),
    ]


SEEDS: Dict[str, List[bytes]] = {
    "tcp_segment": _tcp_segment_seeds(),
    "tcp_options": _tcp_option_seeds(),
    "tls_record": _tls_record_seeds(),
    "tls_handshake": _tls_handshake_seeds(),
    "tcpls_frame": _tcpls_frame_seeds(),
    "join": _join_seeds(),
    "quic_packet": _quic_packet_seeds(),
}

# ---------------------------------------------------------------------------
# Targets: each drives the parsers the live stack runs on those bytes.
# ---------------------------------------------------------------------------


def _target_tcp_segment(data: bytes) -> None:
    TcpSegment.from_bytes(data)


def _target_tls_record(data: bytes) -> None:
    decoder = RecordDecoder()
    decoder.feed(data)
    for _outer_type, _body in decoder.raw_records():
        pass


HANDSHAKE_BODY_PARSERS: Dict[int, Callable[[bytes], object]] = {
    m.CLIENT_HELLO: m.ClientHello.from_body,
    m.SERVER_HELLO: m.ServerHello.from_body,
    m.ENCRYPTED_EXTENSIONS: m.EncryptedExtensionsMsg.from_body,
    m.CERTIFICATE: m.CertificateMsg.from_body,
    m.CERTIFICATE_VERIFY: m.CertificateVerifyMsg.from_body,
    m.FINISHED: m.FinishedMsg.from_body,
    m.KEY_UPDATE: m.KeyUpdateMsg.from_body,
    m.NEW_SESSION_TICKET: m.NewSessionTicketMsg.from_body,
}


def _target_tls_handshake(data: bytes) -> None:
    for msg_type, body, _raw in m.parse_handshake_frames(data):
        parser = HANDSHAKE_BODY_PARSERS.get(msg_type)
        if parser is None:
            continue
        message = parser(body)
        # Chase the extension parsers the sessions actually call, so a
        # length lie inside key_share/server_name/PSK is exercised too.
        for ext_type, ext_body in getattr(message, "extensions", None) or []:
            if ext_type == m.EXT_KEY_SHARE and msg_type == m.CLIENT_HELLO:
                m.parse_key_share_client(ext_body)
            elif ext_type == m.EXT_KEY_SHARE:
                m.parse_key_share_server(ext_body)
            elif ext_type == m.EXT_SERVER_NAME:
                m.parse_server_name(ext_body)
            elif ext_type == m.EXT_PRE_SHARED_KEY and msg_type == m.CLIENT_HELLO:
                m.parse_psk_offer(ext_body)
            elif ext_type == m.EXT_TCPLS:
                joinmod.parse_tcpls_marker(ext_body)


#: The body decoder each ``repro.core.frames.HANDLERS`` entry runs.
#: JOIN_ACK is absent: the joining client matches it by type alone.
FRAME_BODY_DECODERS: Dict[int, Callable[[bytes], object]] = {
    TType.STREAM_DATA: framing.decode_stream_data,
    TType.TCP_OPTION: framing.decode_tcp_option,
    TType.ACK: framing.decode_ack,
    TType.STREAM_OPEN: framing.decode_stream_open,
    TType.STREAM_CLOSE: framing.decode_stream_close,
    TType.NEW_COOKIES: framing.decode_new_cookies,
    TType.PLUGIN: framing.decode_plugin,
    TType.PROBE: framing.decode_probe,
    TType.PROBE_REPORT: framing.decode_probe_report,
    TType.SESSION_CLOSE: framing.decode_session_close,
    TType.ADDRESS_ADVERT: framing.decode_address_advert,
    TType.ADDRESS_REMOVE: framing.decode_address_advert,
    TType.WINDOW_UPDATE: framing.decode_window_update,
}


def _target_tcpls_frame(data: bytes) -> None:
    # Mirrors TcplsSession dispatch: leading TType byte, then
    # seq-prefixed plaintext, then the per-type body decoder.
    if not data:
        return
    frame = framing.decode_frame(data[0], data[1:])
    decoder = FRAME_BODY_DECODERS.get(frame.ttype)
    if decoder is not None:
        decoder(frame.body)


def _target_join(data: bytes) -> None:
    # The same bytes are offered to every JOIN-adjacent parser (which
    # one runs depends on where an attacker lands them).  If none
    # accepts, re-raise the last typed rejection.
    last_rejection: Optional[BaseException] = None
    accepted = False
    for parser in (
        joinmod.parse_tcpls_marker,
        joinmod.TcplsServerParams.from_bytes,
        joinmod.parse_join_body,
    ):
        try:
            parser(data)
            accepted = True
        except ALLOWED_EXCEPTIONS as exc:
            last_rejection = exc
    if not accepted and last_rejection is not None:
        raise last_rejection


def _target_quic_packet(data: bytes) -> None:
    try:
        quicpkt.parse_header(data)
    except ALLOWED_EXCEPTIONS:
        pass
    quicpkt.decode_frames(data)


TARGETS: Dict[str, Callable[[bytes], None]] = {
    "tcp_segment": _target_tcp_segment,
    "tcp_options": decode_options,
    "tls_record": _target_tls_record,
    "tls_handshake": _target_tls_handshake,
    "tcpls_frame": _target_tcpls_frame,
    "join": _target_join,
    "quic_packet": _target_quic_packet,
}
FORMATS = tuple(TARGETS)


def outcome(format_name: str, data: bytes) -> str:
    """``"accepted"`` or ``"rejected"``; any other exception propagates."""
    try:
        TARGETS[format_name](data)
    except ALLOWED_EXCEPTIONS:
        return "rejected"
    return "accepted"


# ---------------------------------------------------------------------------
# Mutation steps: ``step(draw, data) -> bytes``, every choice via ``draw``.
# ---------------------------------------------------------------------------


def _run(draw, data: bytes):
    """A 1/2/3-byte run inside ``data`` (non-empty): (offset, width)."""
    width = min(draw(st.integers(1, 3)), len(data))
    return draw(st.integers(0, len(data) - width)), width


def _chunk(draw, data: bytes):
    """A non-empty chunk of ``data`` (non-empty): (start, end)."""
    start = draw(st.integers(0, len(data) - 1))
    return start, draw(st.integers(start + 1, len(data)))


def truncate(draw, data: bytes) -> bytes:
    return data[: draw(st.integers(0, max(len(data) - 1, 0)))]


def bit_flip(draw, data: bytes) -> bytes:
    if not data:
        return data
    buffer = bytearray(data)
    bits = st.integers(0, 8 * len(data) - 1)
    for bit in draw(st.lists(bits, min_size=1, max_size=8)):
        buffer[bit >> 3] ^= 1 << (bit & 7)
    return bytes(buffer)


def length_lie(draw, data: bytes) -> bytes:
    if not data:
        return data
    offset, width = _run(draw, data)
    lie = draw(st.integers(0, (1 << 8 * width) - 1)).to_bytes(width, "big")
    return data[:offset] + lie + data[offset + width :]


def oversize_claim(draw, data: bytes) -> bytes:
    if not data:
        return data
    offset, width = _run(draw, data)
    return data[:offset] + b"\xff" * width + data[offset + width :]


def duplicate(draw, data: bytes) -> bytes:
    if not data:
        return data
    start, end = _chunk(draw, data)
    return data[:end] + data[start:end] + data[end:]


def reorder(draw, data: bytes) -> bytes:
    if len(data) < 2:
        return data
    start, middle = _chunk(draw, data[:-1])
    end = draw(st.integers(middle + 1, len(data)))
    return data[:start] + data[middle:end] + data[start:middle] + data[end:]


def insert(draw, data: bytes) -> bytes:
    offset = draw(st.integers(0, len(data)))
    return data[:offset] + draw(st.binary(min_size=1, max_size=16)) + data[offset:]


def delete(draw, data: bytes) -> bytes:
    if not data:
        return data
    start, end = _chunk(draw, data)
    return data[:start] + data[end:]


def zero_fill(draw, data: bytes) -> bytes:
    if not data:
        return data
    start, end = _chunk(draw, data)
    return data[:start] + bytes(end - start) + data[end:]


STEPS = (
    truncate, bit_flip, length_lie, oversize_claim, duplicate,
    reorder, insert, delete, zero_fill,
)


@st.composite
def mutated(draw, seeds: List[bytes]) -> bytes:
    """A sampled seed with one or two mutation steps applied."""
    data = draw(st.sampled_from(seeds))
    for step in draw(st.lists(st.sampled_from(STEPS), min_size=1, max_size=2)):
        data = step(draw, data)
    return data


def wire_inputs(format_name: str):
    return mutated(SEEDS[format_name]) | st.binary(max_size=512)


# ---------------------------------------------------------------------------
# The campaign
# ---------------------------------------------------------------------------


def test_seed_corpus_covers_every_format():
    assert set(SEEDS) == set(TARGETS)
    assert len(FORMATS) == 7
    for format_name, seeds in SEEDS.items():
        assert seeds, f"empty corpus for {format_name}"
        assert all(isinstance(seed, bytes) for seed in seeds)


def test_frame_decoders_cover_every_frame_handler():
    """A new frame type cannot escape the campaign: every frame the
    session dispatches has its body decoder here (PING has no body)."""
    assert set(FRAME_BODY_DECODERS) == set(HANDLERS) - {TType.PING}
    seeded = {seed[0] for seed in SEEDS["tcpls_frame"]}
    assert set(HANDLERS) <= seeded


@pytest.mark.parametrize(
    "format_name, seed",
    [(name, seed) for name in FORMATS for seed in SEEDS[name]],
    ids=[f"{name}-{index}" for name in FORMATS for index in range(len(SEEDS[name]))],
)
def test_seed_fails_closed(format_name, seed):
    outcome(format_name, seed)


@pytest.mark.parametrize("format_name", FORMATS)
@settings(max_examples=300)
@given(data=st.data())
def test_mutated_input_fails_closed(format_name, data):
    outcome(format_name, data.draw(wire_inputs(format_name), label="input"))


def _first(format_name: str, wanted: str) -> bytes:
    return find(
        mutated(SEEDS[format_name]),
        lambda data: outcome(format_name, data) == wanted,
        settings=settings(max_examples=300, phases=[Phase.generate]),
    )


@pytest.mark.parametrize("format_name", FORMATS)
def test_mutations_reach_both_outcomes(format_name):
    """Mutations are neither too tame (some input is rejected) nor only
    destructive (some input still parses).  ``find`` raises
    ``NoSuchExample`` when no draw has the outcome."""
    _first(format_name, "rejected")
    _first(format_name, "accepted")


def _drawn(format_name: str) -> List[bytes]:
    inputs: List[bytes] = []

    @settings(max_examples=20)
    @given(wire_inputs(format_name))
    def collect(data):
        inputs.append(data)

    collect()
    return inputs


def test_campaign_bit_for_bit_reproducible():
    """The profile is derandomized and keeps no example database, so
    the same commit draws the same inputs, run after run."""
    assert settings.default.derandomize
    assert settings.default.database is None
    for format_name in FORMATS:
        assert _drawn(format_name) == _drawn(format_name)


@given(
    data=st.data(),
    step=st.sampled_from(STEPS),
    original=st.sampled_from([b"", b"\x00", b"ab", b"abc"]),
)
def test_mutators_are_deterministic_and_total(data, step, original):
    """Every step handles degenerate inputs, and is a pure function of
    its draws: replaying the same draws gives the same bytes."""
    drawn = []

    def recording(strategy):
        drawn.append(data.draw(strategy))
        return drawn[-1]

    result = step(recording, original)
    assert isinstance(result, bytes)
    replay = iter(drawn)
    assert step(lambda _strategy: next(replay), original) == result
