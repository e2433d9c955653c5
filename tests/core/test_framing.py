"""Frame codecs and the TType mechanism (Figure 1)."""

import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import framing
from repro.core.framing import TType
from repro.utils.bytesio import ByteReader, ByteWriter, NeedMoreData
from repro.utils.errors import ProtocolViolation, TruncatedInput


def test_frame_roundtrip():
    plaintext = framing.encode_frame(TType.STREAM_DATA, 42, b"body")
    frame = framing.decode_frame(TType.STREAM_DATA, plaintext)
    assert frame.ttype == TType.STREAM_DATA
    assert frame.seq == 42
    assert frame.body == b"body"


def test_stream_data_roundtrip():
    body = framing.encode_stream_data(7, 1 << 40, b"payload", fin=True)
    stream_id, offset, fin, data = framing.decode_stream_data(body)
    assert (stream_id, offset, fin, data) == (7, 1 << 40, True, b"payload")


def test_tcp_option_roundtrip():
    body = framing.encode_tcp_option(28, b"\x80\x05", apply_to_conn=3)
    kind, conn, option_body = framing.decode_tcp_option(body)
    assert (kind, conn, option_body) == (28, 3, b"\x80\x05")


def test_ack_roundtrip():
    body = framing.encode_ack(123456789, 2)
    assert framing.decode_ack(body) == (123456789, 2)


def test_stream_open_close_roundtrip():
    assert framing.decode_stream_open(framing.encode_stream_open(5, 1)) == (5, 1)
    assert framing.decode_stream_close(framing.encode_stream_close(5, 999)) == (5, 999)


def test_cookies_roundtrip():
    cookies = [bytes([i] * 16) for i in range(3)]
    assert framing.decode_new_cookies(framing.encode_new_cookies(cookies)) == cookies


def test_plugin_roundtrip():
    target, code = framing.decode_plugin(framing.encode_plugin("cc", b"\x01\x02"))
    assert (target, code) == ("cc", b"\x01\x02")


def test_probe_and_report_roundtrip():
    conn, syn = framing.decode_probe(framing.encode_probe(1, b"SYNBYTES"))
    assert (conn, syn) == (1, b"SYNBYTES")
    conn2, diffs = framing.decode_probe_report(
        framing.encode_probe_report(1, ["a", "b c"])
    )
    assert conn2 == 1 and diffs == ["a", "b c"]


def test_address_advert_roundtrip():
    v4, v6 = framing.decode_address_advert(
        framing.encode_address_advert(["10.0.0.1"], ["fc00::1", "fc00::2"])
    )
    assert v4 == ["10.0.0.1"]
    assert v6 == ["fc00::1", "fc00::2"]


def test_reliable_set_excludes_acks_and_pings():
    assert TType.ACK not in TType.RELIABLE
    assert TType.PING not in TType.RELIABLE
    assert TType.STREAM_DATA in TType.RELIABLE
    assert TType.TCP_OPTION in TType.RELIABLE


def test_ttype_values_avoid_tls_standard_range():
    tls_types = {20, 21, 22, 23, 24}
    tcpls_types = {
        TType.STREAM_DATA, TType.TCP_OPTION, TType.ACK, TType.STREAM_OPEN,
        TType.STREAM_CLOSE, TType.JOIN_ACK, TType.NEW_COOKIES, TType.PLUGIN,
        TType.PROBE, TType.PROBE_REPORT, TType.SESSION_CLOSE, TType.PING,
        TType.ADDRESS_ADVERT,
    }
    assert not tls_types & tcpls_types
    assert len(tcpls_types) == 13  # all distinct


@given(
    st.integers(0, 2**32 - 1),
    st.integers(0, 2**64 - 1),
    st.booleans(),
    st.binary(max_size=2000),
)
def test_property_stream_data_roundtrip(stream_id, offset, fin, data):
    body = framing.encode_stream_data(stream_id, offset, data, fin)
    assert framing.decode_stream_data(body) == (stream_id, offset, fin, data)


@given(st.integers(0, 2**64 - 1), st.binary(max_size=500))
def test_property_frame_roundtrip(seq, body):
    frame = framing.decode_frame(
        TType.STREAM_DATA, framing.encode_frame(TType.STREAM_DATA, seq, body)
    )
    assert frame.seq == seq and frame.body == body


# ----------------------------------------------------------------------
# The struct codecs against the ByteWriter/ByteReader ones they replaced
# ----------------------------------------------------------------------

def _put_vectors(writer, put, items):
    writer.put_u8(len(items))
    for item in items:
        put(writer, item)
    return writer


def _get_vectors(reader, get, encoding=None):
    items = [get(reader) for _ in range(reader.get_u8())]
    return items if encoding is None else [item.decode(encoding) for item in items]


def _ascii(texts):
    return [text.encode("ascii") for text in texts]


# The field-by-field codecs the struct ones replaced, kept here as the
# specification: the same bytes out, the same exception class on a short
# body.
W, R = ByteWriter, ByteReader
REFERENCE_ENCODERS = {
    "frame": lambda seq, body: W().put_u64(seq).put_bytes(body),
    "stream_data": lambda sid, offset, data, fin: (
        W().put_u32(sid).put_u64(offset).put_u8(1 if fin else 0).put_bytes(data)),
    "tcp_option": lambda kind, body, conn: W().put_u8(kind).put_u32(conn).put_vec16(body),
    "ack": lambda cumulative, conn: W().put_u64(cumulative).put_u32(conn),
    "stream_open": lambda sid, conn: W().put_u32(sid).put_u32(conn),
    "stream_close": lambda sid, offset: W().put_u32(sid).put_u64(offset),
    "window_update": lambda sid, offset: W().put_u32(sid).put_u64(offset),
    "join_ack": lambda index: W().put_u32(index),
    "new_cookies": lambda cookies: _put_vectors(W(), W.put_vec8, cookies),
    "plugin": lambda target, code: W().put_vec8(target.encode("ascii")).put_vec16(code),
    "probe": lambda conn, syn: W().put_u32(conn).put_vec16(syn),
    "probe_report": lambda conn, diffs: _put_vectors(
        W().put_u32(conn), W.put_vec16, [d.encode("utf-8") for d in diffs]),
    "address_advert": lambda v4, v6: _put_vectors(
        _put_vectors(W(), W.put_vec8, _ascii(v4)), W.put_vec8, _ascii(v6)),
    "session_close": lambda last: W().put_u32(last),
}
REFERENCE_DECODERS = {
    "frame": lambda r: (r.get_u64(), r.get_rest()),
    "stream_data": lambda r: (r.get_u32(), r.get_u64(), bool(r.get_u8()), r.get_rest()),
    "tcp_option": lambda r: (r.get_u8(), r.get_u32(), r.get_vec16()),
    "ack": lambda r: (r.get_u64(), r.get_u32()),
    "stream_open": lambda r: (r.get_u32(), r.get_u32()),
    "stream_close": lambda r: (r.get_u32(), r.get_u64()),
    "window_update": lambda r: (r.get_u32(), r.get_u64()),
    "new_cookies": lambda r: _get_vectors(r, R.get_vec8),
    "plugin": lambda r: (r.get_vec8().decode("ascii"), r.get_vec16()),
    "probe": lambda r: (r.get_u32(), r.get_vec16()),
    "probe_report": lambda r: (r.get_u32(), _get_vectors(r, R.get_vec16, "utf-8")),
    "address_advert": lambda r: (_get_vectors(r, R.get_vec8, "ascii"),
                                 _get_vectors(r, R.get_vec8, "ascii")),
    "session_close": lambda r: r.get_u32(),
}


_CASES = {
    "frame": (9, b"frame body"),
    "stream_data": (7, 1 << 40, b"payload", True),
    "tcp_option": (28, b"\x80\x05", 3),
    "ack": (123456789, 2),
    "stream_open": (5, 1),
    "stream_close": (5, 999),
    "window_update": (3, 1 << 33),
    "join_ack": (4,),
    "new_cookies": ([bytes([i] * 16) for i in range(3)],),
    "plugin": ("bpf.cc", b"\x00\x01\x02"),
    "probe": (1, b"SYNBYTES"),
    "probe_report": (2, ["mss rewritten", "", "wscale é"]),
    "address_advert": (["10.0.0.1", "10.0.0.2"], ["fc00::1"]),
    "session_close": (11,),
}


def _struct_decoder(name):
    if name == "frame":
        return lambda body: (lambda f: (f.seq, f.body))(framing.decode_frame(TType.PING, body))
    return getattr(framing, f"decode_{name}")


def _outcome(decode, body):
    try:
        return "ok", decode(body)
    except Exception as exc:  # noqa: BLE001 - the class is the observation
        return "raised", type(exc)


@pytest.mark.parametrize("name", sorted(_CASES))
def test_struct_encoder_writes_the_reference_bytes(name):
    args = _CASES[name]
    encode = getattr(framing, f"encode_{name}")
    got = encode(TType.PING, *args) if name == "frame" else encode(*args)
    assert got == REFERENCE_ENCODERS[name](*args).getvalue()


@pytest.mark.parametrize("name", sorted(REFERENCE_DECODERS))
def test_every_proper_prefix_fails_as_the_byte_reader_did(name):
    body = REFERENCE_ENCODERS[name](*_CASES[name]).getvalue() + b"\xee"  # ignored
    decode, reference = _struct_decoder(name), lambda b: REFERENCE_DECODERS[name](R(b))
    truncated = 0
    for end in range(len(body) + 1):
        want = _outcome(reference, body[:end])
        assert _outcome(decode, body[:end]) == want, (name, end)
        if want[0] == "raised":
            # NeedMoreData: a TruncatedInput, so a ProtocolViolation.
            assert want[1] is NeedMoreData, (name, end)
            truncated += 1
    # Only the frames that end in an unbounded rest decode a prefix.
    assert truncated >= (8 if name == "frame" else 4)
    assert issubclass(NeedMoreData, TruncatedInput) and issubclass(TruncatedInput, ProtocolViolation)


def test_struct_encoders_reject_what_the_writer_rejected():
    for call in (lambda: framing.encode_new_cookies([b"x" * 256]),
                 lambda: framing.encode_tcp_option(1, b"x" * 65536),
                 lambda: framing.encode_plugin("x" * 256, b"")):
        with pytest.raises(ValueError):
            call()
    with pytest.raises(struct.error):
        framing.encode_new_cookies([b""] * 256)
    with pytest.raises(struct.error):
        framing.encode_ack(1 << 64, 0)
