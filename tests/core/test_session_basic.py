"""TCPLS end-to-end: handshake, streams, data, close."""

import pytest

from repro.core.cookies import COOKIE_BATCH
from repro.core.events import Event
from tests.core.conftest import collect_stream_data, establish


def test_handshake_over_simulated_network(duplex_world):
    world = duplex_world
    establish(world)
    assert world.server_session is not None
    assert world.server_session.handshake_complete
    # The client learned the server's CONNID and cookies via the
    # encrypted ServerHello flight.
    assert world.client.connection_id == world.server_session.connection_id
    assert len(world.client.cookie_purse) == COOKIE_BATCH


def test_server_advertises_addresses_encrypted(duplex_world):
    world = duplex_world
    establish(world)
    assert "10.0.0.2" in world.client.peer_v4_addresses


def test_stream_data_round_trip(duplex_world):
    world = duplex_world
    establish(world)
    received, fins = collect_stream_data(world.server_session)

    stream_id = world.client.stream_new()
    world.client.streams_attach()
    world.client.send(stream_id, b"hello TCPLS")
    world.run(until=2.0)
    assert bytes(received[stream_id]) == b"hello TCPLS"


def test_bulk_transfer_one_stream(duplex_world):
    world = duplex_world
    establish(world)
    received, fins = collect_stream_data(world.server_session)
    payload = bytes(range(256)) * 4000  # 1 MB
    stream_id = world.client.stream_new()
    world.client.streams_attach()
    world.client.send(stream_id, payload)
    world.run(until=10.0)
    assert bytes(received[stream_id]) == payload


def test_server_to_client_data(duplex_world):
    world = duplex_world
    establish(world)
    received, fins = collect_stream_data(world.client)
    server = world.server_session
    stream_id = server.stream_new()
    server.streams_attach()
    server.send(stream_id, b"from the server")
    world.run(until=2.0)
    assert bytes(received[stream_id]) == b"from the server"
    assert stream_id % 2 == 0  # server streams are even


def test_multiple_streams_are_independent(duplex_world):
    world = duplex_world
    establish(world)
    received, fins = collect_stream_data(world.server_session)
    s1 = world.client.stream_new()
    s2 = world.client.stream_new()
    world.client.streams_attach()
    world.client.send(s1, b"A" * 50_000)
    world.client.send(s2, b"B" * 50_000)
    world.run(until=5.0)
    assert bytes(received[s1]) == b"A" * 50_000
    assert bytes(received[s2]) == b"B" * 50_000
    assert s1 != s2


def test_stream_close_delivers_fin_in_order(duplex_world):
    world = duplex_world
    establish(world)
    received, fins = collect_stream_data(world.server_session)
    stream_id = world.client.stream_new()
    world.client.streams_attach()
    world.client.send(stream_id, b"last words")
    world.client.stream_close(stream_id)
    world.run(until=2.0)
    assert bytes(received[stream_id]) == b"last words"
    assert fins == [stream_id]


def test_session_close_after_last_stream(duplex_world):
    world = duplex_world
    establish(world)
    received, fins = collect_stream_data(world.server_session)
    stream_id = world.client.stream_new()
    world.client.streams_attach()
    world.client.send(stream_id, b"bye")
    world.client.close()
    world.run(until=3.0)
    assert world.client.session_closed
    assert world.server_session.session_closed
    # The TCP connections terminated cleanly (FIN, not RST).
    assert world.client.connections[0].tcp.state in ("CLOSED", "TIME_WAIT")


def test_records_are_opaque_appdata_on_the_wire(duplex_world):
    """Middlebox view: after the handshake, every record is APPDATA."""
    world = duplex_world
    outer_types = []

    def spy(datagram):
        from repro.tcp.segment import TcpSegment

        try:
            seg = TcpSegment.from_bytes(datagram.payload, verify_checksum=False)
        except Exception:
            return datagram
        if seg.payload and len(seg.payload) >= 5:
            outer_types.append(seg.payload[0])
        return datagram

    client_iface = list(world.client_stack.host.interfaces.values())[0]
    world.link.add_transformer(client_iface, spy)

    establish(world)
    received, _ = collect_stream_data(world.server_session)
    stream_id = world.client.stream_new()
    world.client.streams_attach()
    world.client.send(stream_id, b"secret control data")
    from repro.tcp.options import UserTimeout

    world.client.send_tcp_option(UserTimeout(timeout=30))
    world.run(until=2.0)
    # First record is the plaintext ClientHello (type 22); everything
    # after the handshake flight looks like application data (23).
    post_handshake = outer_types[1:]
    assert all(t in (22, 23) for t in outer_types)
    assert post_handshake.count(23) >= len(post_handshake) - 1


def test_events_fire_in_order(duplex_world):
    world = duplex_world
    events = []
    for name in (Event.CONN_ESTABLISHED, Event.HANDSHAKE_DONE, Event.STREAM_ATTACHED):
        world.client.on(name, lambda _n=name, **kw: events.append(_n))
    establish(world)
    world.client.stream_new()
    world.client.streams_attach()
    world.run(until=2.0)
    assert events[0] == Event.CONN_ESTABLISHED
    assert Event.HANDSHAKE_DONE in events
    assert events.index(Event.HANDSHAKE_DONE) < events.index(Event.STREAM_ATTACHED)


def test_ticket_collected_for_resumption(duplex_world):
    world = duplex_world
    establish(world)
    world.run(until=2.0)
    assert world.client_ctx.ticket_store.count("server.example") >= 1
