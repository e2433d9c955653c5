"""Unit tests: stream reassembly, replay buffer, receive tracker, cookies."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cookies import CookieJar, CookiePurse, mint_connection_id
from repro.core.reliability import ReceiveTracker, ReplayBuffer
from repro.core.streams import TcplsStream


# ---------------------------------------------------------------------------
# TcplsStream
# ---------------------------------------------------------------------------


def _collector(stream):
    out = bytearray()
    fins = []
    stream.on_data = out.extend
    stream.on_fin = lambda: fins.append(True)
    return out, fins


def test_stream_in_order_delivery():
    stream = TcplsStream(1, 0)
    out, fins = _collector(stream)
    stream.on_segment(0, b"hello ", False)
    stream.on_segment(6, b"world", False)
    assert bytes(out) == b"hello world"


def test_stream_out_of_order_reassembly():
    stream = TcplsStream(1, 0)
    out, fins = _collector(stream)
    stream.on_segment(6, b"world", False)
    assert bytes(out) == b""
    stream.on_segment(0, b"hello ", False)
    assert bytes(out) == b"hello world"


def test_stream_duplicate_and_overlap():
    stream = TcplsStream(1, 0)
    out, _ = _collector(stream)
    stream.on_segment(0, b"abcdef", False)
    stream.on_segment(0, b"abcdef", False)  # exact duplicate
    stream.on_segment(3, b"defghi", False)  # overlapping
    assert bytes(out) == b"abcdefghi"


def test_stream_fin_after_all_data():
    stream = TcplsStream(1, 0)
    out, fins = _collector(stream)
    stream.on_segment(5, b"", True)  # close marker first
    assert fins == []
    stream.on_segment(0, b"12345", False)
    assert fins == [True]
    assert bytes(out) == b"12345"


def test_stream_sender_chunking():
    stream = TcplsStream(1, 0)
    stream.queue(b"x" * 2500)
    chunks = []
    while True:
        taken = stream.take_chunk(1000)
        if taken is None:
            break
        chunks.append(taken)
    assert [(offset, len(data), fin) for offset, data, fin in chunks] == [
        (0, 1000, False), (1000, 1000, False), (2000, 500, False),
    ]


def test_stream_close_produces_fin_chunk():
    stream = TcplsStream(1, 0)
    stream.queue(b"final")
    stream.close()
    offset, data, fin = stream.take_chunk(100)
    assert (offset, data, fin) == (0, b"final", True)
    assert stream.take_chunk(100) is None
    with pytest.raises(RuntimeError):
        stream.queue(b"more")


def test_stream_empty_close():
    stream = TcplsStream(1, 0)
    stream.close()
    offset, data, fin = stream.take_chunk(100)
    assert (offset, data, fin) == (0, b"", True)


def _min_scan_deliveries(payload, arrivals):
    """Reference reassembly: rescan every buffered offset for the
    earliest one on each arrival (O(n) per arrival).  Returns the chunks
    it delivers, call by call."""
    segments, recv_next, deliveries = {}, 0, []
    for offset, length in arrivals:
        data = payload[offset:offset + length]
        if offset < recv_next:
            data = data[recv_next - offset:]
            offset = recv_next
        if data and offset not in segments:
            segments[offset] = data
        delivered = bytearray()
        while segments and min(segments) <= recv_next:
            earliest = min(segments)
            data = segments.pop(earliest)
            delivered.extend(data[recv_next - earliest:])
            recv_next = max(recv_next, earliest + len(data))
        if delivered:
            deliveries.append(bytes(delivered))
    return deliveries


PAYLOAD = bytes(range(200)) * 2
TILES = [(i * 50, 50) for i in range(8)]


@settings(max_examples=100)
@given(st.data())
def test_property_stream_reassembles_any_arrival_order(data):
    # The eight tiles cover the payload; on top come slices overlapping
    # them and exact repeats (a failover replay resends a segment as it
    # was, so two segments at one offset always carry the same bytes).
    overlaps = data.draw(st.lists(
        st.tuples(st.integers(0, 399).filter(lambda o: o % 50), st.integers(1, 120)),
        max_size=10,
    ))
    repeats = data.draw(st.lists(st.sampled_from(TILES + overlaps), max_size=6))
    arrivals = data.draw(st.permutations(TILES + overlaps + repeats))
    stream = TcplsStream(1, 0)
    deliveries = []
    stream.on_data = deliveries.append
    for offset, length in arrivals:
        stream.on_segment(offset, PAYLOAD[offset:offset + length], False)
    assert b"".join(deliveries) == PAYLOAD
    assert stream.reassembly_bytes() == 0
    # Segments leave the buffer in the order an earliest-offset rescan
    # takes them, so every delivery is the one it was before the heap.
    assert deliveries == _min_scan_deliveries(PAYLOAD, arrivals)


def test_reverse_order_one_byte_segments_reassemble_in_one_delivery():
    """20,000 one-byte segments arriving last-first all buffer behind
    the hole at offset 0 until the first byte drains them at once (an
    earliest-offset rescan per arrival made this quadratic)."""
    count = 20_000
    payload = bytes(i % 251 for i in range(count))
    stream = TcplsStream(1, 0)
    deliveries = []
    stream.on_data = deliveries.append
    for offset in reversed(range(count)):
        stream.on_segment(offset, payload[offset:offset + 1], False)
    assert deliveries == [payload]
    assert stream.reassembly_bytes() == 0


# ---------------------------------------------------------------------------
# ReplayBuffer / ReceiveTracker
# ---------------------------------------------------------------------------


def test_replay_buffer_ack_frees_frames():
    buffer = ReplayBuffer()
    for i in range(5):
        seq = buffer.next_seq()
        buffer.store(seq, 0x30, 1, bytes([i]))
    assert buffer.pending_count() == 5
    assert buffer.on_ack(3) == 3
    assert buffer.pending_count() == 2
    assert [seq for seq, *_ in buffer.unacked_frames()] == [4, 5]


def test_replay_buffer_seq_monotonic_from_one():
    buffer = ReplayBuffer()
    assert [buffer.next_seq() for _ in range(3)] == [1, 2, 3]


def test_tracker_cumulative_and_out_of_order():
    tracker = ReceiveTracker()
    assert tracker.accept(1)
    assert tracker.cumulative == 1
    assert tracker.accept(3)
    assert tracker.cumulative == 1
    assert tracker.reordering_depth() == 1
    assert tracker.accept(2)
    assert tracker.cumulative == 3
    assert tracker.reordering_depth() == 0


def test_tracker_duplicates_rejected():
    tracker = ReceiveTracker()
    assert tracker.accept(1)
    assert not tracker.accept(1)
    assert tracker.accept(5)
    assert not tracker.accept(5)
    assert tracker.duplicates == 2


def test_tracker_unsequenced_frames_always_accepted():
    tracker = ReceiveTracker()
    assert tracker.accept(0)
    assert tracker.accept(0)
    assert tracker.duplicates == 0


@given(st.permutations(list(range(1, 30))))
def test_property_tracker_cumulative_reaches_max(order):
    tracker = ReceiveTracker()
    for seq in order:
        assert tracker.accept(seq)
    assert tracker.cumulative == 29
    assert tracker.reordering_depth() == 0


# ---------------------------------------------------------------------------
# Cookies
# ---------------------------------------------------------------------------


def test_cookie_jar_single_use():
    jar = CookieJar(random.Random(1))
    cookies = jar.mint(3)
    assert jar.outstanding() == 3
    assert jar.consume(cookies[0])
    assert not jar.consume(cookies[0])  # replay
    assert jar.consumed == 1 and jar.rejected == 1


def test_cookie_jar_rejects_unknown():
    jar = CookieJar(random.Random(1))
    jar.mint(1)
    assert not jar.consume(b"\x00" * 16)


def test_cookies_are_128_bits_and_unique():
    jar = CookieJar(random.Random(2))
    cookies = jar.mint(10)
    assert all(len(c) == 16 for c in cookies)
    assert len(set(cookies)) == 10


def test_cookie_purse_fifo():
    purse = CookiePurse()
    purse.deposit([b"a" * 16, b"b" * 16])
    assert purse.withdraw() == b"a" * 16
    assert purse.withdraw() == b"b" * 16
    assert purse.withdraw() is None


def test_connection_id_length():
    assert len(mint_connection_id(random.Random(3))) == 16
