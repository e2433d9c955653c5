"""Congestion-controller selection flows through the TCPLS context."""

import pytest

from repro.netsim.scenarios import simple_duplex_network
from tests.core.conftest import World, collect_stream_data


@pytest.mark.parametrize("congestion", ["reno", "cubic"])
def test_tcpls_runs_on_both_controllers(congestion):
    net, client_host, server_host, _ = simple_duplex_network(
        rate_bps=20e6, delay=0.01
    )
    world = World(net, client_host, server_host, congestion=congestion)
    world.client.connect("10.0.0.2")
    world.client.handshake()
    world.run(until=1.0)
    assert world.client.connections[0].tcp.cc.name == (
        "reno" if congestion == "reno" else "cubic"
    )
    received, _ = collect_stream_data(world.server_session)
    stream = world.client.stream_new()
    world.client.streams_attach()
    payload = b"\x7c" * 1_000_000
    world.client.send(stream, payload)
    world.run(until=15.0)
    assert bytes(received[stream]) == payload

