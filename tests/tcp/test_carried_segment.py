"""The carried segment: which received datagrams skip the parse.

``TcpStack.send_raw`` hands IP the segment along with its bytes
(``repro.netsim.packet``'s carried form).  The receiving stack uses that
object only while the datagram holds the very bytes and addresses it was
serialized for; a router hop keeps them, and anything else is parsed
from the wire, so the checksum and malformed counters count what they
always counted.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from helpers import tcp_pair

from repro.netsim.packet import Datagram, PROTO_TCP, parse_address
from repro.tcp.segment import TcpSegment, patch_checksum


def _world():
    """An established pair, one client data segment captured on its way
    to IP, and the server's hand-offs recorded instead of acted on."""
    net, client_tcp, server_tcp, link = tcp_pair()
    accepted = []
    server_tcp.listen(443, accepted.append)
    client = client_tcp.connect("10.0.0.2", 443)
    net.sim.run(until=0.5)
    sent = []
    client_tcp.host.send_ip = sent.append
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


def test_the_untouched_datagram_hands_on_the_senders_segment():
    stack, datagram, used, deliver = _world()
    assert datagram.segment is not None
    deliver(datagram)
    deliver(datagram.hop())  # a router keeps the bytes and addresses
    assert used == [datagram.segment, datagram.segment]
    assert used[0] is datagram.segment and used[1] is datagram.segment


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


def test_a_flipped_payload_byte_is_still_a_checksum_drop():
    stack, datagram, used, deliver = _world()
    raw = datagram.payload
    deliver(datagram.copy(payload=raw[:-1] + bytes([raw[-1] ^ 0x01])))
    assert used == [] and stack.segments_dropped_checksum == 1


def test_a_truncated_datagram_is_still_a_malformed_drop():
    stack, datagram, used, deliver = _world()
    deliver(datagram.copy(payload=datagram.payload[:12]))
    assert used == [] and stack.segments_dropped_malformed == 1
