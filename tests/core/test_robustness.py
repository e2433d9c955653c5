"""Adversarial robustness: garbage, malformed frames, resource limits."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import framing
from repro.core.contexts import CONTROL_STREAM_ID
from repro.core.session import TcplsSession
from repro.netsim.packet import Datagram, PROTO_TCP, parse_address
from repro.tcp.segment import Flags, TcpSegment
from repro.tls.record import ContentType, record_header
from repro.utils.bytesio import NeedMoreData
from repro.utils.errors import ProtocolViolation, ReproError
from tests.core.conftest import collect_stream_data, establish


def test_garbage_bytes_to_server_port_do_not_crash(duplex_world):
    """Random non-TLS bytes on the TCPLS port must not take the server
    down (the sniffer aborts the connection)."""
    world = duplex_world
    establish(world)  # a legitimate session first

    # Open a raw TCP connection and spray garbage.
    raw = world.client_stack.connect("10.0.0.2", 443)
    raw.on_established = lambda: raw.send(b"\xde\xad\xbe\xef" * 100)
    world.run(until=3.0)
    # The existing session is unharmed.
    received, _ = collect_stream_data(world.server_session)
    stream = world.client.stream_new()
    world.client.streams_attach()
    world.client.send(stream, b"still alive")
    world.run(until=4.0)
    assert bytes(received[stream]) == b"still alive"


def test_forged_records_counted_not_crashing(duplex_world):
    """Valid TLS record framing with garbage ciphertext -> forgery count."""
    world = duplex_world
    establish(world)
    conn = world.server_session.connections[0]
    garbage = b"\x00" * 64
    record = record_header(ContentType.APPLICATION_DATA, len(garbage)) + garbage
    before = world.server_session.contexts.forgery_suspects
    world.server_session._on_tcp_data(conn, record)
    assert world.server_session.contexts.forgery_suspects == before + 1

    # The session continues to work.
    received, _ = collect_stream_data(world.server_session)
    stream = world.client.stream_new()
    world.client.streams_attach()
    world.client.send(stream, b"ok")
    world.run(until=world.sim.now + 1.0)
    assert bytes(received[stream]) == b"ok"


def test_unknown_frame_type_raises_protocol_violation(duplex_world):
    world = duplex_world
    establish(world)
    # A record the client authenticates, whose frame type names nothing.
    server = world.server_session
    cipher = server.contexts.send_context(CONTROL_STREAM_ID, server.primary.conn_id)
    inner = framing.encode_frame(0x7F, 1, b"") + b"\x7f"
    header = record_header(ContentType.APPLICATION_DATA, len(inner) + 16)
    record = cipher.seal(inner, header)
    with pytest.raises(ProtocolViolation):
        world.client._on_raw_record(
            world.client.connections[0], ContentType.APPLICATION_DATA, record
        )


def test_join_to_unknown_session_gets_reset(dual_world):
    """A JOIN naming a bogus CONNID is refused with a TCP abort."""
    world = dual_world
    establish_primary = world.client.connect(world.topo.server_v4)
    world.client.handshake()
    world.run(until=1.0)
    # Forge the session identity, then attempt a JOIN.
    world.client.connection_id = b"\x00" * 16
    v6 = world.client.connect(world.topo.server_v6, src=world.topo.client_v6)
    world.client.handshake(conn_id=v6)
    world.run(until=3.0)
    assert world.client.connections[v6].state in ("FAILED", "CLOSED")
    assert len(world.server_session.connections) == 1


def test_stream_data_for_never_opened_stream_dropped(duplex_world):
    """A frame naming an unknown stream id on the *control* context is
    handled defensively (the stream springs into existence, mirroring
    QUIC's implicit stream creation)."""
    world = duplex_world
    establish(world)
    received, _ = collect_stream_data(world.server_session)
    # Craft a STREAM_DATA frame for stream 99 on the control context.
    body = framing.encode_stream_data(99, 0, b"implicit", fin=False)
    seq = world.client.replay.next_seq()
    world.client._send_frame(
        world.client.connections[0], framing.TType.STREAM_DATA, body, seq,
        stream_id=0,
    )
    world.run(until=world.sim.now + 1.0)
    assert bytes(received.get(99, b"")) == b"implicit"


@settings(max_examples=80, deadline=None)
@given(st.binary(min_size=0, max_size=120))
def test_property_frame_decoders_never_crash_unexpectedly(data):
    """Every decoder either parses or raises a library error — never an
    IndexError/struct.error style crash."""
    decoders = [
        framing.decode_stream_data,
        framing.decode_tcp_option,
        framing.decode_ack,
        framing.decode_stream_open,
        framing.decode_stream_close,
        framing.decode_new_cookies,
        framing.decode_plugin,
        framing.decode_probe,
        framing.decode_probe_report,
        framing.decode_address_advert,
        framing.decode_session_close,
    ]
    for decode in decoders:
        try:
            decode(data)
        except (ReproError, UnicodeDecodeError):
            pass  # NeedMoreData / ProtocolViolation are the contract


@settings(max_examples=60, deadline=None)
@given(st.binary(min_size=20, max_size=80))
def test_property_tcp_segment_parser_never_crashes(data):
    try:
        TcpSegment.from_bytes(data, verify_checksum=False)
    except ReproError:
        pass
