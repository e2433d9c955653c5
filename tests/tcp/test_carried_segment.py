"""The carried segment: which received datagrams skip the parse.

``TcpStack.send_raw`` hands IP the segment in its datagram
(``repro.netsim.packet``'s carried form), a template segment with its
bytes unbuilt.  The receiving stack uses that object only while the
datagram was never built and the segment is as sent, or while the
datagram holds the very bytes and addresses it was serialized for; a
router hop keeps them, and anything else is parsed from the wire, so the
checksum and malformed counters count what they always counted.  Every
read of an unbuilt payload (pcap, a middlebox, ``copy``, ``repr``,
``==``) gets the bytes an eager serialization at send time made.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from helpers import tcp_pair

from repro.netsim.middlebox import Nat44, PayloadCorruptor
from repro.netsim.packet import Datagram, PROTO_TCP, parse_address
from repro.netsim.pcap import PcapWriter
from repro.tcp.options import SackBlocks
from repro.tcp.segment import Flags, TcpSegment, patch_checksum


def _world(sack=False):
    """An established pair, one client data segment (a SACK-carrying
    ACK with ``sack``) captured on its way to IP, and the server's
    hand-offs recorded instead of acted on."""
    net, client_tcp, server_tcp, link = tcp_pair()
    accepted = []
    server_tcp.listen(443, accepted.append)
    client = client_tcp.connect("10.0.0.2", 443)
    net.sim.run(until=0.5)
    sent = []
    client_tcp.host.send_ip = sent.append
    if sack:
        left = (client.rcv_nxt + 100) & 0xFFFFFFFF
        client._transmit(client._make_segment(
            flags=Flags.ACK, seq=client.snd_nxt,
            options=[SackBlocks(blocks=((left, left + 50),))],
        ))
    else:
        client.send(b"carried bytes")
    del client_tcp.host.send_ip
    used = []
    accepted[0].on_segment = used.append
    server_tcp._send_reset_for = lambda datagram, segment: used.append(segment)
    interface = list(server_tcp.host.interfaces.values())[0]

    def deliver(datagram):
        server_tcp.host.local_deliver(datagram, interface)
    return server_tcp, sent[0], used, deliver


def _repatched(datagram, payload=None, src=None):
    buffer = bytearray(datagram.payload if payload is None else payload)
    src = datagram.src if src is None else src
    patch_checksum(buffer, src, datagram.dst)
    return datagram.copy(payload=bytes(buffer), src=src)


def _as_sent(datagram):
    """An eager serialization of the datagram's segment, as sent."""
    return datagram.segment._serialize(datagram.src, datagram.dst)


def test_the_untouched_datagram_hands_on_the_senders_segment():
    stack, datagram, used, deliver = _world()
    assert datagram.segment is not None and "payload" not in datagram.__dict__
    deliver(datagram)
    deliver(datagram.hop())  # a router keeps the bytes and addresses
    assert used == [datagram.segment, datagram.segment]
    assert used[0] is datagram.segment and used[1] is datagram.segment
    assert "payload" not in datagram.__dict__  # nothing read the bytes


def test_an_unbuilt_datagram_is_sized_and_read_as_sent():
    stack, datagram, used, deliver = _world()
    wire = _as_sent(datagram)
    assert datagram.size == datagram.header_length + len(wire)
    twin = Datagram(datagram.src, datagram.dst, PROTO_TCP, wire,
                    packet_id=datagram.packet_id)
    assert datagram.summary() == twin.summary() and repr(datagram) == repr(twin)
    assert datagram == twin and datagram.payload is datagram.payload == wire


def test_a_pcap_capture_reads_the_sent_bytes_and_keeps_the_carried_segment(tmp_path):
    stack, datagram, used, deliver = _world()
    wire = _as_sent(datagram)
    with PcapWriter(str(tmp_path / "capture.pcap"), stack.sim) as capture:
        assert capture(datagram) is datagram
    assert (tmp_path / "capture.pcap").read_bytes().endswith(wire)
    deliver(datagram)
    assert used[0] is datagram.segment


def test_a_sack_carrying_segment_is_serialized_at_send_and_carried():
    stack, datagram, used, deliver = _world(sack=True)
    assert datagram.__dict__["payload"] == _as_sent(datagram)
    deliver(datagram)
    assert used == [datagram.segment] and used[0] is datagram.segment


def test_a_reset_for_an_unknown_connection_answers_the_sent_segment():
    stack, datagram, used, deliver = _world()
    del stack._send_reset_for  # the real RST path, not the recorder
    stack._connections.clear()
    resets = []
    stack.host.send_ip = resets.append
    deliver(datagram)
    sent = TcpSegment.from_bytes(_as_sent(datagram), datagram.src, datagram.dst)
    rst = TcpSegment.from_bytes(resets[0].payload, resets[0].src, resets[0].dst)
    assert stack.rsts_sent == 1 and len(resets) == 1
    assert rst.flags == Flags.RST and rst.seq == sent.ack
    assert (rst.src_port, rst.dst_port) == (sent.dst_port, sent.src_port)


def _rewritten_payload(datagram):
    raw = datagram.payload
    return _repatched(datagram, payload=raw[:-1] + bytes([raw[-1] ^ 0x20]))


PARSED = {
    "rewritten_payload": _rewritten_payload,
    "nat_rewritten_source": lambda d: _repatched(d, src=parse_address("10.0.0.9")),
    "duplicated": lambda d: d.copy(),
    "equal_bytes_not_the_same": lambda d: Datagram(
        d.src, d.dst, PROTO_TCP, bytes(bytearray(d.payload)), segment=d.segment
    ),
    "nat44_outbound": lambda d: Nat44("10.0.0.9").outbound(d),
    "payload_corruptor": lambda d: PayloadCorruptor()(d),
}


@pytest.mark.parametrize("change", sorted(PARSED))
def test_any_other_datagram_is_parsed_from_its_bytes(change):
    stack, datagram, used, deliver = _world()
    changed = PARSED[change](datagram)
    deliver(changed)
    parsed = TcpSegment.from_bytes(changed.payload, changed.src, changed.dst)
    assert len(used) == 1 and used[0] is not datagram.segment
    assert used[0].__dict__ == parsed.__dict__


def test_a_segment_changed_after_sending_is_not_trusted():
    stack, datagram, used, deliver = _world()
    datagram.segment.window = 1  # drops its wire cache
    deliver(datagram)
    assert used[0] is not datagram.segment
    assert used[0].window == TcpSegment.from_bytes(
        datagram.payload, datagram.src, datagram.dst
    ).window != 1


def test_a_hop_taken_before_the_change_still_reads_as_sent():
    stack, datagram, used, deliver = _world()
    wire = _as_sent(datagram)
    clone = datagram.hop()
    datagram.segment.window = 1
    datagram.segment.window = 2  # the first change kept the sent bytes
    deliver(clone)
    assert clone.payload == wire and datagram.payload == wire
    assert used[0] is not datagram.segment and used[0].window not in (1, 2)


def test_a_flipped_payload_byte_is_still_a_checksum_drop():
    stack, datagram, used, deliver = _world()
    raw = datagram.payload
    deliver(datagram.copy(payload=raw[:-1] + bytes([raw[-1] ^ 0x01])))
    assert used == [] and stack.segments_dropped_checksum == 1


def test_a_truncated_datagram_is_still_a_malformed_drop():
    stack, datagram, used, deliver = _world()
    deliver(datagram.copy(payload=datagram.payload[:12]))
    assert used == [] and stack.segments_dropped_malformed == 1
