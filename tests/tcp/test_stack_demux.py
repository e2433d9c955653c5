"""TcpStack demultiplexing, checksums, RST generation, delayed ACKs."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from helpers import start_sink_server, tcp_pair

import ipaddress

from repro.netsim import node as node_mod
from repro.netsim.packet import Datagram, PROTO_TCP, parse_address
from repro.tcp import segment as segment_mod
from repro.tcp.segment import Flags, TcpSegment

SRC = parse_address("10.0.0.1")
DST = parse_address("10.0.0.2")


def _inject(stack_to, segment):
    raw = segment.to_bytes(SRC, DST)
    stack_to.host.local_deliver(
        Datagram(SRC, DST, PROTO_TCP, raw),
        list(stack_to.host.interfaces.values())[0],
    )


def test_bad_checksum_dropped_and_counted():
    net, client_tcp, server_tcp, link = tcp_pair()
    seg = TcpSegment(src_port=1, dst_port=443, flags=Flags.SYN)
    raw = bytearray(seg.to_bytes(SRC, DST))
    raw[-1] ^= 0xFF
    server_tcp.host.local_deliver(
        Datagram(SRC, DST, PROTO_TCP, bytes(raw)),
        list(server_tcp.host.interfaces.values())[0],
    )
    assert server_tcp.segments_dropped_checksum == 1


def test_segment_to_closed_port_answered_with_rst():
    net, client_tcp, server_tcp, link = tcp_pair()
    data_seg = TcpSegment(
        src_port=1234, dst_port=9999, seq=10, flags=Flags.ACK, ack=55,
    )
    _inject(server_tcp, data_seg)
    assert server_tcp.rsts_sent == 1


def test_spoofed_source_spray_keeps_address_memos_bounded():
    # Both the checksum's pseudo-header memo and the host's route memo
    # are keyed by addresses read off the wire: 10k SYNs from distinct
    # spoofed sources must not grow either past its bound, and each
    # must still verify its checksum and draw its RST.
    net, client_tcp, server_tcp, link = tcp_pair()
    interface = list(server_tcp.host.interfaces.values())[0]
    base = int(parse_address("172.16.0.0"))
    for index in range(10_000):
        src = ipaddress.IPv4Address(base + index)
        syn = TcpSegment(src_port=1234, dst_port=9999, seq=index, flags=Flags.SYN)
        server_tcp.host.local_deliver(
            Datagram(src, DST, PROTO_TCP, syn.to_bytes(src, DST)), interface
        )
        assert len(segment_mod._PSEUDO_PREFIX) <= segment_mod._PSEUDO_PREFIX_MAX
        assert len(server_tcp.host._route_cache) <= node_mod._ROUTE_CACHE_MAX
    assert server_tcp.rsts_sent == 10_000
    assert server_tcp.segments_dropped_checksum == 0


def test_syn_to_closed_port_rst_acks_syn():
    net, client_tcp, server_tcp, link = tcp_pair()
    rsts = []
    client_tcp.host.register_protocol(254, lambda d, i: None)  # unused

    # Watch the wire for the RST.
    def spy(datagram):
        try:
            seg = TcpSegment.from_bytes(datagram.payload, verify_checksum=False)
        except Exception:
            return datagram
        if seg.is_rst:
            rsts.append(seg)
        return datagram

    link.add_transformer(list(server_tcp.host.interfaces.values())[0], spy)
    conn = client_tcp.connect("10.0.0.2", 7777)  # nothing listening
    net.sim.run(until=1.0)
    assert rsts
    assert rsts[0].ack == (conn.iss + 1) & 0xFFFFFFFF


def test_ephemeral_ports_unique_across_many_connects():
    net, client_tcp, server_tcp, link = tcp_pair()
    start_sink_server(server_tcp)
    conns = [client_tcp.connect("10.0.0.2", 443) for _ in range(20)]
    ports = {conn.local_port for conn in conns}
    assert len(ports) == 20


def test_delayed_ack_halves_pure_acks():
    def run(delayed):
        net, client_tcp, server_tcp, link = tcp_pair()
        acks = [0]

        def count_acks(datagram):
            try:
                seg = TcpSegment.from_bytes(datagram.payload, verify_checksum=False)
            except Exception:
                return datagram
            if seg.is_ack and not seg.payload and not seg.is_syn:
                acks[0] += 1
            return datagram

        link.add_transformer(
            list(server_tcp.host.interfaces.values())[0], count_acks
        )
        received = bytearray()

        def on_connection(conn):
            conn.delayed_ack = delayed
            conn.on_data = received.extend

        server_tcp.listen(443, on_connection)
        conn = client_tcp.connect("10.0.0.2", 443)
        conn.send(b"d" * 400_000)
        net.sim.run(until=10.0)
        assert bytes(received) == b"d" * 400_000
        return acks[0]

    immediate = run(delayed=False)
    delayed = run(delayed=True)
    assert delayed < immediate * 0.7  # roughly halved


def test_delayed_ack_timer_fires_for_lone_segment():
    net, client_tcp, server_tcp, link = tcp_pair()
    received = bytearray()
    server_conns = []

    def on_connection(conn):
        server_conns.append(conn)
        conn.delayed_ack = True
        conn.on_data = received.extend

    server_tcp.listen(443, on_connection)
    conn = client_tcp.connect("10.0.0.2", 443)
    net.sim.run(until=0.5)
    conn.send(b"just one segment")
    net.sim.run(until=2.0)
    assert bytes(received) == b"just one segment"
    # The sender's data was acknowledged (no retransmission needed).
    assert conn.stats["retransmissions"] == 0
    assert conn.bytes_in_flight() == 0
