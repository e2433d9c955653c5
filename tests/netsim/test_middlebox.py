"""Middleboxes operating on live TCP connections."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from helpers import Sink, start_sink_server, tcp_pair

from repro.netsim.middlebox import (
    Nat44,
    OptionStripper,
    PayloadCorruptor,
    RstInjector,
    TransparentProxyMangler,
)
from repro.netsim.packet import Datagram, PROTO_TCP, parse_address
from repro.netsim.topology import Network
from repro.tcp.options import (
    KIND_SACK_PERMITTED,
    KIND_TIMESTAMPS,
    SackPermitted,
    Timestamps,
    find_option,
)
from repro.tcp.segment import Flags, TcpSegment
from repro.tcp.stack import TcpStack


def _client_iface(stack):
    return list(stack.host.interfaces.values())[0]


def test_option_stripper_removes_sack_permitted():
    net, client_tcp, server_tcp, link = tcp_pair()
    stripper = OptionStripper([KIND_SACK_PERMITTED])
    link.add_transformer(_client_iface(client_tcp), stripper)
    sinks = start_sink_server(server_tcp)
    conn = client_tcp.connect("10.0.0.2", 443)
    conn.send(b"data")
    net.sim.run(until=1.0)
    assert stripper.stripped_count >= 1
    # Server never saw SACK-permitted, so it is disabled on both sides.
    server_conn = list(server_tcp._connections.values())
    assert bytes(sinks[0].data) == b"data"
    assert conn.state == "ESTABLISHED"


def test_option_stripper_breaks_timestamps_but_not_transfer():
    net, client_tcp, server_tcp, link = tcp_pair()
    stripper = OptionStripper([KIND_TIMESTAMPS])
    link.add_transformer(_client_iface(client_tcp), stripper)
    sinks = start_sink_server(server_tcp)
    conn = client_tcp.connect("10.0.0.2", 443)
    conn.send(b"x" * 50_000)
    net.sim.run(until=5.0)
    assert bytes(sinks[0].data) == b"x" * 50_000


def test_rst_injector_kills_connection_and_peer_observes_reset():
    net, client_tcp, server_tcp, link = tcp_pair()
    injector = RstInjector(trigger_bytes=20_000)
    link.add_transformer(_client_iface(client_tcp), injector)
    sinks = start_sink_server(server_tcp)
    conn = client_tcp.connect("10.0.0.2", 443)
    client_side = Sink(conn)
    conn.send(b"r" * 100_000)
    net.sim.run(until=30.0)
    assert injector.fired
    # The server received the forged RST.
    assert sinks[0].reset
    assert len(sinks[0].data) < 100_000


def test_transparent_proxy_clamps_mss_on_syn():
    net, client_tcp, server_tcp, link = tcp_pair()
    mangler = TransparentProxyMangler(clamp_mss=536)
    link.add_transformer(_client_iface(client_tcp), mangler)
    sinks = start_sink_server(server_tcp)
    conn = client_tcp.connect("10.0.0.2", 443)
    conn.send(b"m" * 10_000)
    net.sim.run(until=5.0)
    assert mangler.mangled_syns == 1
    server_conn = [c for c in server_tcp._connections.values()]
    assert bytes(sinks[0].data) == b"m" * 10_000
    # The server believed the client's MSS was 536.
    assert len(server_conn) == 0 or server_conn[0].peer_mss == 536


def test_transparent_proxy_rewrites_syn_window():
    """A different window is one of the SYN symptoms TCPLS's SYN-echo
    detection keys on (paper section 4.5): the proxy clamps it to 8192."""
    src, dst = parse_address("10.0.0.1"), parse_address("10.0.0.2")
    syn = TcpSegment(src_port=40000, dst_port=443, flags=Flags.SYN, window=65535)
    mangled = TransparentProxyMangler()(
        Datagram(src, dst, PROTO_TCP, syn.to_bytes(src, dst))
    )
    assert TcpSegment.from_bytes(mangled.payload, src, dst).window == 8192


def test_payload_corruptor_detected_by_tcp_checksum_unless_rewritten():
    # The corruptor reserializes with a fresh checksum, modelling a
    # middlebox that "validly" rewrites packets, so TCP accepts them and
    # the corruption reaches the application.
    net, client_tcp, server_tcp, link = tcp_pair()
    corruptor = PayloadCorruptor(every=1)
    link.add_transformer(_client_iface(client_tcp), corruptor)
    sinks = start_sink_server(server_tcp)
    conn = client_tcp.connect("10.0.0.2", 443)
    conn.send(b"A" * 1000)
    net.sim.run(until=2.0)
    data = bytes(sinks[0].data)
    assert corruptor.corrupted >= 1
    assert data != b"A" * 1000 and len(data) == 1000


def test_nat44_translates_and_connection_works():
    net = Network()
    client = net.add_host("client")
    server = net.add_host("server")
    ci = client.add_interface("eth0").configure_ipv4("10.0.0.1/24")
    si = server.add_interface("eth0").configure_ipv4("20.0.0.2/24")
    link = net.connect(ci, si)
    # Manual routes: the client reaches 20/24 directly over the link.
    client.add_route("20.0.0.0/24", ci)
    server.add_route("20.0.0.0/24", si)
    nat = Nat44(public_address="20.0.0.9")
    link.add_transformer(ci, nat.outbound)
    link.add_transformer(si, nat.inbound)

    client_tcp = TcpStack(client, seed=1)
    server_tcp = TcpStack(server, seed=2)
    sinks = start_sink_server(server_tcp)
    conn = client_tcp.connect("20.0.0.2", 443)
    client_side = Sink(conn)
    conn.send(b"through the NAT")
    net.sim.run(until=2.0)
    assert bytes(sinks[0].data) == b"through the NAT"
    assert nat.translations > 0
    # The server saw the public address, not the private one.
    server_conn_addrs = [c.remote_addr for c in server_tcp._connections.values()]
    assert parse_address("20.0.0.9") in server_conn_addrs


def test_nat_drops_unsolicited_inbound():
    nat = Nat44(public_address="20.0.0.9")
    segment = TcpSegment(src_port=9999, dst_port=12345, flags=0x02)
    datagram = Datagram(
        parse_address("20.0.0.2"),
        parse_address("20.0.0.9"),
        PROTO_TCP,
        segment.to_bytes(parse_address("20.0.0.2"), parse_address("20.0.0.9")),
    )
    assert nat.inbound(datagram) is None
