"""0-RTT TCPLS: TLS early data inside a TCP Fast Open SYN (section 4.2)."""

import pytest

from repro.core.session import TcplsSession
from repro.utils.errors import ProtocolViolation
from tests.core.conftest import World, collect_stream_data
from repro.netsim.scenarios import simple_duplex_network


def _world(delay=0.025):
    net, client_host, server_host, link = simple_duplex_network(delay=delay)
    world = World(net, client_host, server_host)
    world.link = link
    return world


def _prime(world):
    """First visit: full handshake earns a TLS ticket and a TFO cookie."""
    world.client.connect("10.0.0.2", fast_open=True)  # requests a TFO cookie
    world.client.handshake()
    world.run(until=1.0)
    assert world.client.handshake_complete
    world.client.close()
    world.run(until=2.0)


def test_0rtt_requires_prior_visit():
    world = _world()
    with pytest.raises(ProtocolViolation):
        world.client.connect_0rtt("10.0.0.2", early_data=b"GET /")


def test_0rtt_early_data_arrives_in_one_way_delay():
    world = _world(delay=0.025)
    _prime(world)
    # Second session from the same client stack, fresh TCPLS session.
    client2 = TcplsSession(world.client_ctx, world.client_stack)
    early = []
    server_early = []

    def on_session(session):
        world.server_sessions.append(session)
        session.on_early_data = lambda data: server_early.append(
            (world.sim.now, data)
        )

    world.server.on_session = on_session
    start = world.sim.now
    client2.connect_0rtt("10.0.0.2", early_data=b"GET /index.html")
    world.run(until=start + 0.040)  # just over one one-way delay (25 ms)
    assert server_early, "early data did not arrive in the first flight"
    arrival, data = server_early[0]
    assert data == b"GET /index.html"
    assert arrival - start < 0.035  # one-way delay + transmission, not 3x
    world.run(until=start + 1.0)
    assert client2.handshake_complete
    # ``TlsSession``'s flags are the one store of the resumption outcome.
    for tls in (client2.tls, world.server_sessions[-1].tls):
        assert tls.psk_offered and tls.used_psk
        assert tls.early_data_accepted and not tls.early_replay_rejected
    assert client2.tls.early_data_sent
    assert not any(key.startswith("resumption") for key in client2.stats)


def test_0rtt_handshake_versus_1rtt_round_trips():
    """0-RTT data beats even the fastest 1-RTT request by a full RTT."""
    delay = 0.030

    # 1-RTT resumption: data can only flow after the handshake completes.
    world = _world(delay=delay)
    _prime(world)
    client2 = TcplsSession(world.client_ctx, world.client_stack)
    start = world.sim.now
    done = {}
    client2.connect("10.0.0.2")
    client2.handshake()

    def poll():
        if client2.handshake_complete:
            done["t"] = world.sim.now - start
        else:
            world.sim.schedule(0.001, poll)

    world.sim.schedule(0.001, poll)
    world.run(until=start + 2.0)
    one_rtt_time = done["t"]

    # 0-RTT: early data arrives at the server.
    world2 = _world(delay=delay)
    _prime(world2)
    client3 = TcplsSession(world2.client_ctx, world2.client_stack)
    arrivals = []
    world2.server.on_session = lambda s: setattr(
        s, "on_early_data", lambda d: arrivals.append(world2.sim.now)
    )
    start2 = world2.sim.now
    client3.connect_0rtt("10.0.0.2", early_data=b"request")
    world2.run(until=start2 + 2.0)
    zero_rtt_data_time = arrivals[0] - start2

    # The 1-RTT handshake costs at least 2 RTTs before the server could
    # see a request (TCP handshake + TLS flight); 0-RTT delivers in half
    # an RTT.
    assert zero_rtt_data_time < delay * 1.5
    assert one_rtt_time > delay * 3.5
    assert zero_rtt_data_time < one_rtt_time / 3


def test_0rtt_session_continues_as_normal_session():
    world = _world()
    _prime(world)
    client2 = TcplsSession(world.client_ctx, world.client_stack)
    client2.connect_0rtt("10.0.0.2", early_data=b"warmup")
    world.run(until=world.sim.now + 1.0)
    assert client2.handshake_complete
    session2 = world.server_sessions[-1]
    received, _ = collect_stream_data(session2)
    stream = client2.stream_new()
    client2.streams_attach()
    client2.send(stream, b"post-handshake data")
    world.run(until=world.sim.now + 1.0)
    assert bytes(received[stream]) == b"post-handshake data"
