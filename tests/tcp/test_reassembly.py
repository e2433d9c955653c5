"""TCP reassembly in sequence order against the scan it replaced.

``TcpConnection`` keeps out-of-order data in a dict held in sequence
order next to a running byte count, so draining takes the first chunk,
SACK blocks walk the dict once and the advertised window reads one
integer.  The reference here is the original buffer: an unordered dict
filled with ``setdefault``, drained by ``min()`` over every chunk's
distance from ``rcv_nxt``, sorted for every SACK option and summed for
every window.  Both receive the same arrivals — overlapping, duplicated
(first arrival wins), behind ``rcv_nxt``, across the 2^32 wrap — and
must agree on every delivered byte, ``rcv_nxt``, the buffer's contents
in sequence order, the SACK blocks and the advertised window.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tcp import seqnum
from repro.tcp.connection import TcpConnection

WINDOW = 1 << 20


class _MinScanReference:
    """The receive buffer as it was: setdefault, min-scan, sort, sum."""

    def __init__(self, rcv_nxt):
        self.rcv_nxt = rcv_nxt
        self.buffer = {}
        self.delivered = bytearray()

    def reassemble(self, seq, payload):
        self.buffer.setdefault(seq, payload)
        while self.buffer:
            seq = min(self.buffer, key=lambda s: seqnum.seq_sub(s, self.rcv_nxt))
            offset = seqnum.seq_sub(self.rcv_nxt, seq)
            if offset < 0:
                break
            data = self.buffer.pop(seq)
            if offset < len(data):
                self.delivered.extend(data[offset:])
                self.rcv_nxt = seqnum.seq_add(self.rcv_nxt, len(data) - offset)

    def in_order(self):
        return sorted(self.buffer.items(),
                      key=lambda item: seqnum.seq_sub(item[0], self.rcv_nxt))

    def sack_blocks(self):
        merged = []
        for left, data in self.in_order():
            right = seqnum.seq_add(left, len(data))
            if merged and seqnum.seq_le(left, merged[-1][1]):
                if seqnum.seq_gt(right, merged[-1][1]):
                    merged[-1][1] = right
            else:
                merged.append([left, right])
        return [tuple(block) for block in merged]

    def window(self):
        return max(WINDOW - sum(len(d) for d in self.buffer.values()), 0)


def _receiver(rcv_nxt):
    """The receive side of a connection, without a stack behind it."""
    conn = TcpConnection.__new__(TcpConnection)
    conn.rcv_nxt = rcv_nxt
    conn.rcv_wnd_limit = WINDOW
    conn._reassembly = {}
    conn._reassembly_bytes = 0
    conn._paused = False
    conn._pending_delivery = bytearray()
    delivered = bytearray()
    conn.on_data = delivered.extend
    return conn, delivered


def _trimmed(seq, payload, rcv_nxt):
    """``_handle_data``'s trim of data partly or wholly behind rcv_nxt."""
    if seqnum.seq_lt(seq, rcv_nxt):
        overlap = seqnum.seq_sub(rcv_nxt, seq)
        if overlap >= len(payload):
            return seq, b""
        return rcv_nxt, payload[overlap:]
    return seq, payload


arrival = st.tuples(
    st.integers(-3_000, 12_000),            # seq relative to rcv_nxt
    st.integers(1, 2_500),                  # length
    st.integers(0, 255),                    # content tag: overlaps differ
)


@settings(max_examples=150, deadline=None)
@given(
    start=st.one_of(st.integers(0, 0xFFFFFFFF),
                    st.integers(0xFFFFFFFF - 20_000, 0xFFFFFFFF)),
    arrivals=st.lists(arrival, min_size=1, max_size=40),
    repeat_every=st.integers(2, 7),
)
def test_ordered_buffer_equals_the_min_scan(start, arrivals, repeat_every):
    conn, delivered = _receiver(start)
    reference = _MinScanReference(start)
    sent = []
    for index, (relative, length, tag) in enumerate(arrivals):
        if index % repeat_every == repeat_every - 1 and sent:
            seq, payload = sent[tag % len(sent)]          # an exact duplicate
            payload = bytes(b ^ 0x5A for b in payload)    # with other content
        else:
            seq = (conn.rcv_nxt + relative) & 0xFFFFFFFF
            payload = bytes((tag + i) & 0xFF for i in range(length))
            sent.append((seq, payload))
        seq, payload = _trimmed(seq, payload, conn.rcv_nxt)
        if not payload:
            continue
        conn._reassemble(seq, payload)
        reference.reassemble(seq, payload)
        assert conn.rcv_nxt == reference.rcv_nxt
        assert delivered == reference.delivered
        assert list(conn._reassembly.items()) == reference.in_order()
        assert conn._reassembly_bytes == sum(map(len, conn._reassembly.values()))
        assert conn._sack_blocks() == reference.sack_blocks()
        assert conn._advertised_window() == reference.window()


def test_holes_filled_out_of_order_across_the_wrap():
    """Six chunks straddling 2^32 arrive last-first, with a duplicate of
    the second carrying other bytes; the gap at rcv_nxt closes last."""
    start = 0xFFFFFFFF - 2_500
    conn, delivered = _receiver(start)
    chunks = [((start + 1_000 * i) & 0xFFFFFFFF, bytes([i]) * 1_000) for i in range(6)]
    for seq, payload in reversed(chunks[1:]):
        conn._reassemble(seq, payload)
    conn._reassemble(chunks[1][0], b"\xff" * 1_000)   # first arrival wins
    assert [seq for seq, _ in conn._reassembly.items()] == [s for s, _ in chunks[1:]]
    assert conn._sack_blocks() == [(chunks[1][0], (start + 6_000) & 0xFFFFFFFF)]
    assert conn._advertised_window() == WINDOW - 5_000
    conn._reassemble(*chunks[0])
    assert delivered == b"".join(payload for _, payload in chunks)
    assert conn.rcv_nxt == (start + 6_000) & 0xFFFFFFFF
    assert not conn._reassembly and conn._reassembly_bytes == 0
