"""Netsim datapath: Datagram.copy, Datagram.hop and pcap fidelity.

``Datagram.copy`` and ``Datagram.hop`` bypass the dataclass
``__init__`` and middleboxes forward cached wire bytes untouched; none
of them may change *what* happens:
datagram semantics, packet-id allocation, and — the end-to-end proof —
the exact bytes a packet capture records for a middlebox-traversing
connection, held to a digest frozen at commit ad1523e (generated there
with every ``repro.fastpath`` flag off, verified identical with every
flag on).
"""

import hashlib

import pytest

import repro.netsim.packet as packet_mod
from repro.netsim.packet import Datagram, PROTO_TCP, parse_address
from repro.netsim.pcap import PcapWriter
from repro.netsim.middlebox import OptionStripper
from repro.netsim.scenarios import dual_path_network
from repro.tcp.options import KIND_SACK_PERMITTED

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from helpers import start_sink_server, tcp_pair

PROTO_PROBE = 253  # RFC 3692 experimentation: no stack handles it


# ----------------------------------------------------------------------
# Datagram.copy (middlebox rewrites) and Datagram.hop (router hops)
# ----------------------------------------------------------------------

def test_datagram_copy_semantics():
    datagram = Datagram(
        parse_address("10.0.0.1"), parse_address("10.0.0.2"), PROTO_TCP, b"x" * 100
    )
    hop = datagram.hop()
    assert hop.hop_limit == 63 and datagram.hop_limit == 64
    assert hop.packet_id != datagram.packet_id  # every hop is a new packet
    assert (hop.src, hop.dst, hop.protocol, hop.payload) == (
        datagram.src, datagram.dst, datagram.protocol, datagram.payload)
    assert (hop.version, hop.header_length, hop.size) == (4, 20, 120)
    bigger = datagram.copy(payload=b"y" * 200)
    assert bigger.size == 220  # derived fields recomputed on payload change
    assert bigger.hop_limit == 64
    pinned = datagram.copy(packet_id=datagram.packet_id)
    assert pinned.packet_id == datagram.packet_id
    with pytest.raises(ValueError):
        datagram.copy(dst=parse_address("fc00::2"))  # family mismatch


def test_datagram_copy_allocates_one_id_per_clone():
    """The pcap format embeds the packet id in the IPv4 header, so a
    clone must take exactly the next id, like a fresh construction,
    whether a router or a middlebox makes it."""
    packet_mod._next_packet_id = 1000
    datagram = Datagram(
        parse_address("10.0.0.1"), parse_address("10.0.0.2"), PROTO_TCP, b"z"
    )
    chain = [datagram, datagram.hop(), datagram.copy(payload=b"w")]
    chain.append(chain[1].hop())
    chain.append(Datagram(datagram.src, datagram.dst, PROTO_TCP, b""))
    assert [d.packet_id for d in chain] == [1001, 1002, 1003, 1004, 1005]
    assert [d.hop_limit for d in chain] == [64, 63, 64, 62, 64]


def test_router_hops_take_the_next_packet_ids_in_forwarding_order():
    """Two routers between client and server: each forwarded datagram is
    a new packet with the next id, allocated when the router forwards
    it, and a router whose way out is down still allocates one."""
    topology = dual_path_network()
    arrived = []
    topology.server.register_protocol(
        PROTO_PROBE, lambda datagram, interface: arrived.append(datagram))
    src, dst = parse_address(topology.client_v4), parse_address(topology.server_v4)
    packet_mod._next_packet_id = 5000
    for payload in (b"a" * 100, b"b" * 10):
        topology.client.send_ip(Datagram(src, dst, PROTO_PROBE, payload))
    topology.net.run(until=1.0)
    # Sent as 5001 and 5002, cloned by r4a as 5003 and 5004, by r4b as
    # 5005 and 5006.
    assert [(d.packet_id, d.hop_limit, d.payload, d.size) for d in arrived] == [
        (5005, 62, b"a" * 100, 120), (5006, 62, b"b" * 10, 30)]

    topology.net.nodes["r4b"].interfaces["eth1"].set_down()
    topology.client.send_ip(Datagram(src, dst, PROTO_PROBE, b"c"))
    topology.net.run(until=2.0)
    assert len(arrived) == 2
    assert Datagram(src, dst, PROTO_PROBE, b"").packet_id == 5010


# ----------------------------------------------------------------------
# End-to-end pcap fidelity through a middlebox
# ----------------------------------------------------------------------

def _capture_leg(path: str) -> bytes:
    """Run a TCP transfer through an option-stripping middlebox with a
    pcap writer on both directions; return the capture bytes."""
    packet_mod._next_packet_id = 0  # ids are embedded in the IPv4 header
    net, client_tcp, server_tcp, link = tcp_pair(seed=9, loss_rate=0.01)
    client_iface = list(client_tcp.host.interfaces.values())[0]
    server_iface = list(server_tcp.host.interfaces.values())[0]
    stripper = OptionStripper([KIND_SACK_PERMITTED])
    link.add_transformer(client_iface, stripper)
    writer = PcapWriter(path, net.sim)
    link.add_transformer(client_iface, writer)  # post-middlebox bytes
    link.add_transformer(server_iface, writer)
    sinks = start_sink_server(server_tcp)
    conn = client_tcp.connect("10.0.0.2", 443)
    conn.send(b"\x5c" * 60_000)
    net.sim.run(until=10.0)
    writer.close()
    assert stripper.stripped_count >= 1  # the middlebox actually fired
    assert bytes(sinks[0].data) == b"\x5c" * 60_000
    assert writer.packets_written > 50
    with open(path, "rb") as handle:
        return handle.read()


def test_pcap_matches_frozen_capture(tmp_path):
    capture = _capture_leg(str(tmp_path / "leg.pcap"))
    assert len(capture) == 67560  # 90 packets
    assert hashlib.sha256(capture).hexdigest() == (
        "4a06aba822e50342a66eb6613c2edf4b145c5429a7dc70a3c0f561bb888f4228"
    )
