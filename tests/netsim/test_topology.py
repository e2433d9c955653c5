"""Route computation and the canned scenario topologies."""

import ipaddress

import pytest

from repro.netsim import node as node_mod
from repro.netsim.packet import Datagram, parse_address
from repro.netsim.scenarios import dual_path_network, simple_duplex_network
from repro.netsim.topology import Network


def _capture(host, proto=253):
    received = []
    host.register_protocol(proto, lambda d, i: received.append((host.sim.now, d, i)))
    return received


def test_routes_through_one_router():
    net = Network()
    a = net.add_host("a")
    r = net.add_router("r")
    b = net.add_host("b")
    ia = a.add_interface("eth0").configure_ipv4("10.1.0.1/24")
    ir1 = r.add_interface("eth0").configure_ipv4("10.1.0.254/24")
    ir2 = r.add_interface("eth1").configure_ipv4("10.2.0.254/24")
    ib = b.add_interface("eth0").configure_ipv4("10.2.0.1/24")
    net.connect(ia, ir1)
    net.connect(ir2, ib)
    net.compute_routes()
    received = _capture(b)
    a.send_ip(Datagram(parse_address("10.1.0.1"), parse_address("10.2.0.1"), 253, b"x"))
    net.sim.run_until_idle()
    assert len(received) == 1
    assert r.packets_forwarded == 1


def test_unroutable_destination_returns_false():
    net = Network()
    a = net.add_host("a")
    ia = a.add_interface("eth0").configure_ipv4("10.1.0.1/24")
    b = net.add_host("b")
    ib = b.add_interface("eth0").configure_ipv4("10.1.0.2/24")
    net.connect(ia, ib)
    net.compute_routes()
    ok = a.send_ip(
        Datagram(parse_address("10.1.0.1"), parse_address("99.0.0.1"), 253, b"x")
    )
    assert ok is False


def test_route_cache_stays_bounded_under_a_destination_spray():
    # A router's route memo is keyed by destinations read off the wire
    # (and remembers unroutable ones too): 10k distinct spoofed
    # destinations must not grow it past its bound, and every packet
    # must still take the route the table gives it.
    net = Network()
    a = net.add_host("a")
    r = net.add_router("r")
    b = net.add_host("b")
    ia = a.add_interface("eth0").configure_ipv4("10.1.0.1/24")
    ir1 = r.add_interface("eth0").configure_ipv4("10.1.0.254/24")
    ir2 = r.add_interface("eth1").configure_ipv4("10.2.0.254/16")
    ib = b.add_interface("eth0").configure_ipv4("10.2.0.1/16")
    net.connect(ia, ir1)
    net.connect(ir2, ib)
    net.compute_routes()
    src = parse_address("10.1.0.1")
    routable = int(parse_address("10.2.1.0"))
    unroutable = int(parse_address("99.0.0.0"))
    largest = 0
    for index in range(5000):
        for base, expected in ((routable, ir2), (unroutable, None)):
            dst = ipaddress.IPv4Address(base + index)
            r.receive(Datagram(src, dst, 253, b"x"), ir1)
            assert r.lookup_route(dst) is expected
            largest = max(largest, len(r._route_cache))
    assert r.packets_forwarded == 5000
    assert node_mod._ROUTE_CACHE_MAX < 10_000  # the spray overran the memo
    assert largest <= node_mod._ROUTE_CACHE_MAX
    assert r.lookup_route(parse_address("10.1.0.1")) is ir1


def test_hop_limit_expires():
    net = Network()
    hosts = [net.add_host("a"), net.add_host("b")]
    routers = [net.add_router(f"r{i}") for i in range(3)]
    chain = [hosts[0]] + routers + [hosts[1]]
    for i in range(len(chain) - 1):
        left = chain[i].add_interface(f"to{i}").configure_ipv4(f"10.{i}.0.1/24")
        right = chain[i + 1].add_interface(f"from{i}").configure_ipv4(f"10.{i}.0.2/24")
        net.connect(left, right)
    net.compute_routes()
    received = _capture(hosts[1])
    hosts[0].send_ip(
        Datagram(
            parse_address("10.0.0.1"), parse_address("10.3.0.2"), 253, b"x", hop_limit=2
        )
    )
    net.sim.run_until_idle()
    assert received == []


def test_dual_path_network_v4_and_v6_disjoint():
    topo = dual_path_network()
    received4 = _capture(topo.server)
    topo.client.send_ip(
        Datagram(
            parse_address(topo.client_v4), parse_address(topo.server_v4), 253, b"v4"
        )
    )
    topo.client.send_ip(
        Datagram(
            parse_address(topo.client_v6), parse_address(topo.server_v6), 253, b"v6"
        )
    )
    topo.sim.run_until_idle()
    payloads = sorted(d.payload for _, d, _ in received4)
    assert payloads == [b"v4", b"v6"]
    # v4 traversed the v4 routers only.
    assert topo.net.nodes["r4a"].packets_forwarded == 1
    assert topo.net.nodes["r6a"].packets_forwarded == 1
    assert topo.net.nodes["r4b"].packets_forwarded == 1


def test_dual_path_v4_has_lower_delay():
    topo = dual_path_network(v4_delay=0.010, v6_delay=0.025)
    received = _capture(topo.server)
    topo.client.send_ip(
        Datagram(
            parse_address(topo.client_v4), parse_address(topo.server_v4), 253, b"v4"
        )
    )
    topo.client.send_ip(
        Datagram(
            parse_address(topo.client_v6), parse_address(topo.server_v6), 253, b"v6"
        )
    )
    topo.sim.run_until_idle()
    by_payload = {d.payload: t for t, d, _ in received}
    assert by_payload[b"v4"] < by_payload[b"v6"]


def test_cut_v4_path_blocks_only_v4():
    topo = dual_path_network()
    received = _capture(topo.server)
    topo.cut_v4_path()
    topo.client.send_ip(
        Datagram(
            parse_address(topo.client_v4), parse_address(topo.server_v4), 253, b"v4"
        )
    )
    topo.client.send_ip(
        Datagram(
            parse_address(topo.client_v6), parse_address(topo.server_v6), 253, b"v6"
        )
    )
    topo.sim.run_until_idle()
    assert [d.payload for _, d, _ in received] == [b"v6"]


def test_simple_duplex_roundtrip():
    net, client, server, link = simple_duplex_network()
    received = _capture(server)
    client.send_ip(
        Datagram(parse_address("10.0.0.1"), parse_address("10.0.0.2"), 253, b"ping")
    )
    net.sim.run_until_idle()
    assert len(received) == 1


def test_duplicate_node_name_rejected():
    net = Network()
    net.add_host("x")
    with pytest.raises(ValueError):
        net.add_host("x")


def test_host_accessor_type_checks():
    net = Network()
    net.add_router("r")
    with pytest.raises(TypeError):
        net.host("r")
