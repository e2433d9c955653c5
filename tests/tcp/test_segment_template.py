"""Differential oracles for the Timestamps-only segment template.

``TcpSegment._serialize`` / ``from_bytes`` handle one header shape (data
offset 8 words, option bytes ``08 0a <TSval> <TSecr> 00 00``) with one
precompiled struct each way.  Everything here holds that template to
references kept in this file: the generic ``encode_options`` /
``decode_options`` codec as it stood at commit 5804457, with the RFC 1071
word loop (``internet_checksum_reference``) for the checksum.  The
near-miss shapes must not be recognised by the template at all.

``decode_guard`` became a slotted class in the same change; it is held
to a copy of the ``@contextmanager`` generator it replaced.
"""

import struct
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.tcp.segment as segment_module
from repro.netsim.packet import PROTO_TCP, Datagram, parse_address
from repro.tcp.options import (
    MaximumSegmentSize,
    SackBlocks,
    Timestamps,
    decode_options,
    encode_options,
)
from repro.tcp.segment import Flags, TcpSegment
from repro.utils.errors import (
    DecodeError,
    GuardLimitExceeded,
    InvalidValue,
    ProtocolViolation,
    TruncatedInput,
    decode_guard,
)
from tests.helpers import tcp_pair
from tests.references import internet_checksum_reference

V4 = (parse_address("10.0.0.1"), parse_address("10.0.0.2"))
V6 = (parse_address("fc00::1"), parse_address("fc00::2"))
PAYLOAD_LENGTHS = (0, 1, 2, 3, 4, 333, 334, 1380, 1460)
FIELDS = ("src_port", "dst_port", "seq", "ack", "flags", "window", "options",
          "payload", "urgent")


# ----------------------------------------------------------------------
# References (the generic codec of commit 5804457, readable form)
# ----------------------------------------------------------------------

def _pseudo_header(src, dst, tcp_length):
    if src.version == 4:
        return src.packed + dst.packed + struct.pack("!BBH", 0, PROTO_TCP, tcp_length)
    return src.packed + dst.packed + struct.pack(
        "!IBBBB", tcp_length, 0, 0, 0, PROTO_TCP
    )


def reference_wire(segment, src, dst):
    """Header + ``encode_options`` block + payload, RFC 1071 checksum."""
    options_block = encode_options(segment.options)
    header_length = 20 + len(options_block)
    header = struct.pack(
        "!HHIIBBHHH", segment.src_port, segment.dst_port,
        segment.seq & 0xFFFFFFFF, segment.ack & 0xFFFFFFFF,
        (header_length // 4) << 4, segment.flags, segment.window & 0xFFFF,
        0, segment.urgent,
    )
    body = header + options_block + bytes(segment.payload)
    checksum = internet_checksum_reference(
        _pseudo_header(src, dst, len(body)) + body
    )
    return body[:16] + struct.pack("!H", checksum) + body[18:]


def reference_parse(data, src=None, dst=None, verify_checksum=True):
    """The generic ``from_bytes`` as a dict of fields plus ``_wire``."""
    if len(data) < 20:
        raise TruncatedInput("TCP segment shorter than minimum header")
    (src_port, dst_port, seq, ack, offset_flags_hi, flags, window, _checksum,
     urgent) = struct.unpack("!HHIIBBHHH", data[:20])
    data_offset = (offset_flags_hi >> 4) * 4
    if data_offset < 20 or data_offset > len(data):
        raise InvalidValue(f"bad TCP data offset {data_offset}")
    checksum_ok = False
    if src is not None and dst is not None:
        checksum_ok = internet_checksum_reference(
            _pseudo_header(src, dst, len(data)) + bytes(data)
        ) == 0
        if verify_checksum and not checksum_ok:
            raise ProtocolViolation("TCP checksum verification failed")
    return dict(
        src_port=src_port, dst_port=dst_port, seq=seq, ack=ack, flags=flags,
        window=window, options=decode_options(data[20:data_offset]),
        payload=data[data_offset:], urgent=urgent,
        _wire=(src, dst, bytes(data)) if checksum_ok else None,
    )


class _GenericPathCounter:
    """Counts trips through the generic option codec: the template path
    makes none, every other shape makes exactly one per call."""

    def __init__(self, monkeypatch):
        self.encoded = self.decoded = 0
        monkeypatch.setattr(segment_module, "encode_options", self._encode)
        monkeypatch.setattr(segment_module, "decode_options", self._decode)

    def _encode(self, options):
        self.encoded += 1
        return encode_options(options)

    def _decode(self, data):
        self.decoded += 1
        return decode_options(data)


def _outcome(parse, *args, **kwargs):
    """A parse's result as comparable data, or the exception it raised."""
    try:
        result = parse(*args, **kwargs)
    except Exception as exc:  # compared by the caller, not swallowed
        return ("raised", type(exc), str(exc))
    if isinstance(result, TcpSegment):
        result = dict(
            {name: getattr(result, name) for name in FIELDS}, _wire=result._wire
        )
    return ("parsed", result)


def _template_segment(payload=b"", **overrides):
    fields = dict(
        src_port=443, dst_port=50123, seq=0xFFFFFF00, ack=0x12345678,
        flags=Flags.ACK | Flags.PSH, window=4321,
        options=[Timestamps(value=0x01020304, echo_reply=0xA0B0C0D0)],
        payload=payload,
    )
    fields.update(overrides)
    return TcpSegment(**fields)


# ----------------------------------------------------------------------
# Serialiser
# ----------------------------------------------------------------------

_u16 = st.integers(0, 0xFFFF)
#: Sequence numbers, weighted to the wrap and to values the ``& 0xFFFFFFFF``
#: masks have to fold (past 2^32, negative).
_u32 = st.one_of(
    st.integers(0, 0xFFFFFFFF),
    st.sampled_from([0, 1, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFE, 0xFFFFFFFF]),
)
_seq = st.one_of(_u32, st.integers(-5, (1 << 32) + 5))
_payload = st.one_of(
    st.sampled_from(PAYLOAD_LENGTHS).flatmap(
        lambda n: st.binary(min_size=n, max_size=n)
    ),
    st.binary(max_size=64),
)
_segments = st.builds(
    TcpSegment,
    src_port=_u16, dst_port=_u16, seq=_seq, ack=_seq,
    flags=st.integers(0, 0xFF), window=st.integers(0, 0x1FFFF), urgent=_u16,
    options=st.builds(Timestamps, value=_seq, echo_reply=_seq).map(lambda o: [o]),
    payload=_payload,
)


@settings(max_examples=300, deadline=None)
@given(segment=_segments, family=st.sampled_from([V4, V6]))
def test_template_serialiser_equals_the_generic_codec(segment, family):
    src, dst = family
    wire = segment._serialize(src, dst)
    assert wire == reference_wire(segment, src, dst)
    assert type(wire) is bytes
    # Verifies under the word-loop checksum, not just byte equality.
    assert internet_checksum_reference(
        _pseudo_header(src, dst, len(wire)) + wire
    ) == 0


@pytest.mark.parametrize("family", [V4, V6], ids=["v4", "v6"])
@pytest.mark.parametrize("length", PAYLOAD_LENGTHS)
def test_template_serialiser_every_payload_length(length, family):
    src, dst = family
    segment = _template_segment(payload=bytes(range(256)) * 6)
    segment.payload = segment.payload[:length]
    assert segment.to_bytes(src, dst) == reference_wire(segment, src, dst)


def test_template_serialiser_zero_sum_fold_edge():
    """A sum that is a nonzero multiple of 0xFFFF folds to 0xFFFF and is
    sent as checksum 0x0000, exactly like the reference loop."""
    src, dst = V4
    base = _template_segment(window=0, urgent=0)
    wanted = struct.unpack("!H", reference_wire(base, src, dst)[16:18])[0]
    # Raising ``urgent`` by the checksum's complement drives the sum to
    # a multiple of 0xFFFF.
    segment = _template_segment(window=0, urgent=wanted)
    wire = segment.to_bytes(src, dst)
    assert wire == reference_wire(segment, src, dst)
    assert wire[16:18] == b"\x00\x00"


def test_serialiser_takes_the_template_only_for_a_sole_timestamps(monkeypatch):
    counter = _GenericPathCounter(monkeypatch)
    src, dst = V4
    _template_segment(b"x" * 5)._serialize(src, dst)
    assert counter.encoded == 0

    class Subclassed(Timestamps):
        pass

    near_misses = [
        [],
        [Timestamps(1, 2), SackBlocks(((10, 20),))],
        [SackBlocks(((10, 20),)), Timestamps(1, 2)],
        [MaximumSegmentSize(1400)],
        [Timestamps(1, 2), Timestamps(3, 4)],
        [Subclassed(1, 2)],
    ]
    for index, options in enumerate(near_misses, start=1):
        segment = _template_segment(b"abc", options=options)
        assert segment._serialize(src, dst) == reference_wire(segment, src, dst)
        assert counter.encoded == index


def test_template_serialiser_rejects_what_the_generic_one_rejects():
    src, dst = V4
    for field, value in (("flags", 0x100), ("src_port", 0x10000),
                         ("dst_port", -1), ("urgent", 0x10000)):
        with pytest.raises(struct.error):
            _template_segment(**{field: value})._serialize(src, dst)
        with pytest.raises(struct.error):
            reference_wire(_template_segment(**{field: value}), src, dst)


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(segment=_segments, family=st.sampled_from([V4, V6]),
       with_addresses=st.booleans())
def test_template_parse_equals_the_generic_parse(segment, family, with_addresses):
    src, dst = family
    wire = reference_wire(segment, src, dst)
    args = (wire, src, dst) if with_addresses else (wire,)
    got = _outcome(TcpSegment.from_bytes, *args)
    assert got == _outcome(reference_parse, *args)
    status, fields = got
    assert status == "parsed"
    (option,) = fields["options"]
    assert type(option) is Timestamps
    assert option == Timestamps(
        value=segment.options[0].value & 0xFFFFFFFF,
        echo_reply=segment.options[0].echo_reply & 0xFFFFFFFF,
    )
    assert hash(option) == hash(Timestamps(option.value, option.echo_reply))
    assert option.kind == 8 and option.body() == wire[22:30]
    assert fields["_wire"] == ((src, dst, wire) if with_addresses else None)


def test_parser_takes_the_template_for_the_template_shape(monkeypatch):
    counter = _GenericPathCounter(monkeypatch)
    src, dst = V6
    for length in PAYLOAD_LENGTHS:
        wire = reference_wire(_template_segment(b"\x7e" * length), src, dst)
        parsed = TcpSegment.from_bytes(wire, src, dst)
        assert parsed.payload == b"\x7e" * length
        assert parsed.to_bytes(src, dst) is parsed._wire[2]
    assert counter.decoded == 0


def _with_checksum(wire, src, dst):
    """``wire`` with bytes 16-17 recomputed by the reference loop."""
    body = wire[:16] + b"\x00\x00" + wire[18:]
    checksum = internet_checksum_reference(
        _pseudo_header(src, dst, len(body)) + body
    )
    return body[:16] + struct.pack("!H", checksum) + body[18:]


def _near_misses(src, dst):
    template = reference_wire(_template_segment(b"payload!"), src, dst)
    header, options, payload = template[:20], template[20:32], template[32:]

    def rebuilt(option_bytes, offset_words=None, low_nibble=0):
        words = (20 + len(option_bytes)) // 4 if offset_words is None else offset_words
        fixed = header[:12] + bytes([words << 4 | low_nibble]) + header[13:]
        return _with_checksum(fixed + option_bytes + payload, src, dst)

    sack = bytes([5, 10]) + struct.pack("!II", 100, 200)
    return {
        "SACK after Timestamps": rebuilt(options[:10] + sack),
        "SACK before Timestamps": rebuilt(sack + options[:10]),
        "NOP NOP Timestamps (the Linux layout)": rebuilt(b"\x01\x01" + options[:10]),
        "padding 00 01": rebuilt(options[:10] + b"\x00\x01"),
        "padding 01 00": rebuilt(options[:10] + b"\x01\x00"),
        "kind 8 length 9": rebuilt(b"\x08\x09" + options[2:9] + b"\x00\x00\x00"),
        "kind 8 length 11": rebuilt(b"\x08\x0b" + options[2:10] + b"\x00\x00"),
        "kind 9 length 10": rebuilt(b"\x09\x0a" + options[2:]),
        "data offset 7 over the same bytes": rebuilt(options, offset_words=7),
        "data offset 9 over the same bytes": rebuilt(options, offset_words=9),
        "data offset 15 past the buffer": rebuilt(options, offset_words=15),
        "reserved bits set beside offset 8": rebuilt(options, low_nibble=1),
        "31-byte buffer": _with_checksum(template[:31], src, dst),
        "20-byte buffer claiming offset 8": _with_checksum(template[:20], src, dst),
        "19-byte buffer": template[:19],
    }


@pytest.mark.parametrize("family", [V4, V6], ids=["v4", "v6"])
def test_near_misses_take_the_generic_path(monkeypatch, family):
    src, dst = family
    for name, wire in _near_misses(src, dst).items():
        expected = _outcome(reference_parse, wire, src, dst)
        counter = _GenericPathCounter(monkeypatch)
        assert _outcome(TcpSegment.from_bytes, wire, src, dst) == expected, name
        # Never recognised as the template: what parses was decoded by
        # the generic codec, what does not was rejected by it (or before
        # it, by the header checks) with a typed decode error.
        if expected[0] == "parsed":
            assert counter.decoded == 1, name
        else:
            assert counter.decoded <= 1 and issubclass(expected[1], DecodeError), name


def test_near_miss_expectations_are_what_the_shapes_suggest():
    """The table above exercises both outcomes, not one by accident."""
    src, dst = V4
    outcomes = {
        name: _outcome(reference_parse, wire, src, dst)
        for name, wire in _near_misses(src, dst).items()
    }
    parsed = {name for name, outcome in outcomes.items() if outcome[0] == "parsed"}
    assert {"SACK after Timestamps", "NOP NOP Timestamps (the Linux layout)",
            "padding 00 01", "kind 8 length 9",
            "reserved bits set beside offset 8"} <= parsed
    assert outcomes["31-byte buffer"][1] is InvalidValue
    assert outcomes["19-byte buffer"][1] is TruncatedInput
    assert outcomes["data offset 15 past the buffer"][1] is InvalidValue
    # Padding after End-of-List is ignored by the generic codec too, so
    # the parsed options equal the template's; only the path differs.
    assert outcomes["padding 00 01"][1]["options"] == [
        Timestamps(0x01020304, 0xA0B0C0D0)
    ]


@pytest.mark.parametrize("family", [V4, V6], ids=["v4", "v6"])
@pytest.mark.parametrize("position", [0, 13, 16, 22, 31, 32, 39])
def test_flipped_bit_fails_the_checksum_and_is_never_cached(family, position):
    src, dst = family
    wire = bytearray(reference_wire(_template_segment(b"payload!"), src, dst))
    wire[position] ^= 0x04
    wire = bytes(wire)
    with pytest.raises(ProtocolViolation) as caught:
        TcpSegment.from_bytes(wire, src, dst)
    assert type(caught.value) is ProtocolViolation  # not a DecodeError
    assert _outcome(TcpSegment.from_bytes, wire, src, dst) == _outcome(
        reference_parse, wire, src, dst
    )
    unverified = TcpSegment.from_bytes(wire, src, dst, verify_checksum=False)
    assert unverified._wire is None
    # Reserialising computes a fresh checksum over the damaged fields
    # instead of replaying the damaged image.
    assert unverified.to_bytes(src, dst) != wire
    TcpSegment.from_bytes(unverified.to_bytes(src, dst), src, dst)


def test_stack_counts_a_damaged_template_segment_as_a_checksum_drop():
    net, client_tcp, server_tcp, _link = tcp_pair()
    accepted = []
    server_tcp.listen(443, accepted.append)
    conn = client_tcp.connect("10.0.0.2", 443)
    net.sim.run(until=0.5)
    assert conn.state == "ESTABLISHED" and accepted
    segment = conn._make_segment(Flags.ACK | Flags.PSH, conn.snd_nxt, b"in order")
    wire = bytearray(segment.to_bytes(conn.local_addr, conn.remote_addr))
    wire[-1] ^= 0x01
    before = accepted[0].stats["segments_received"]
    server_tcp._on_datagram(
        Datagram(src=conn.local_addr, dst=conn.remote_addr, protocol=PROTO_TCP,
                 payload=bytes(wire)),
        None,
    )
    assert server_tcp.segments_dropped_checksum == 1
    assert server_tcp.segments_dropped_malformed == 0
    assert accepted[0].stats["segments_received"] == before


def test_template_parse_of_other_buffer_types():
    """``from_bytes`` is handed bytes by the stack; a bytearray or a
    memoryview parses to the same fields on both paths."""
    src, dst = V4
    wire = reference_wire(_template_segment(b"abcde"), src, dst)
    expected = _outcome(TcpSegment.from_bytes, wire, src, dst)[1]
    for view in (bytearray(wire), memoryview(wire)):
        fields = _outcome(TcpSegment.from_bytes, view, src, dst)[1]
        assert {k: v for k, v in fields.items() if k != "payload"} == {
            k: v for k, v in expected.items() if k != "payload"
        }
        assert bytes(fields["payload"]) == b"abcde"


# ----------------------------------------------------------------------
# decode_guard: the class against the generator it replaced
# ----------------------------------------------------------------------

_STRAY = (struct.error, IndexError, KeyError, OverflowError,
          UnicodeDecodeError, ValueError)


@contextmanager
def generator_decode_guard(what):
    """``decode_guard`` as it stood at commit 5804457."""
    try:
        yield
    except DecodeError:
        raise
    except _STRAY as exc:
        raise InvalidValue(f"{what}: {exc}") from exc


def _raise_through(guard, exc):
    try:
        with guard("the parser"):
            if exc is not None:
                raise exc
            return "completed"
    except (Exception, KeyboardInterrupt) as raised:  # everything in the table
        return raised


_THROWN = [
    struct.error("unpack requires a buffer of 4 bytes"),
    IndexError("index out of range"),
    KeyError("missing"),
    OverflowError("int too big to convert"),
    UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte"),
    ValueError("invalid literal"),
    TruncatedInput("typed: short"),
    InvalidValue("typed: bad"),
    DecodeError("typed: base"),
    ProtocolViolation("not a decode error"),
    GuardLimitExceeded("resource guard"),
    TypeError("not a stray type"),
    AttributeError("nor this"),
    ZeroDivisionError("nor this"),
    KeyboardInterrupt(),
    None,
]


@pytest.mark.parametrize("thrown", _THROWN, ids=lambda e: type(e).__name__)
def test_decode_guard_matches_the_generator_version(thrown):
    got = _raise_through(decode_guard, thrown)
    expected = _raise_through(generator_decode_guard, thrown)
    if thrown is None:
        assert got == expected == "completed"
        return
    assert type(got) is type(expected)
    assert str(got) == str(expected)
    if isinstance(thrown, _STRAY):
        assert type(got) is InvalidValue
        assert str(got) == f"the parser: {thrown}"
        assert got.__cause__ is thrown and got.__context__ is thrown
        assert got.__suppress_context__
    else:
        assert got is thrown  # untouched, not re-wrapped
        assert got.__cause__ is None


def test_decode_guard_lets_a_typed_error_that_is_also_a_stray_type_through():
    class TypedValueError(DecodeError, ValueError):
        pass

    thrown = TypedValueError("both")
    assert _raise_through(decode_guard, thrown) is thrown
    assert _raise_through(generator_decode_guard, thrown) is thrown


def test_decode_guard_is_slotted_and_reusable_as_a_with_target():
    guard = decode_guard("x")
    assert not hasattr(guard, "__dict__")
    with guard as bound:
        assert bound is None
    with pytest.raises(InvalidValue):
        with guard:
            raise IndexError("again")
