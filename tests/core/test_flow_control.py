"""The three per-stream credit rules, pinned at the session level.

- A receiver grants credit only once at least a quarter of its window
  has been consumed, and the grant names consumed offset + window.
- A sender ignores a stale or replayed grant (one that does not raise
  its limit): credit and the stall flag stay, and nothing is re-pumped.
- A receiver fails the connection when data runs past
  ``max(granted_limit, DEFAULT_STREAM_WINDOW)``; overshoot up to the
  protocol-default window is accepted.

Frames are sealed with the sender's real contexts and handed to the
receiver's ``_on_tcp_data`` as if TCP had delivered them, so each rule
is observed on one frame, with no simulator time in between.
"""

from types import SimpleNamespace

import pytest

from repro.core import framing
from repro.core.framing import TType
from repro.core.streams import DEFAULT_STREAM_WINDOW
from repro.netsim.scenarios import simple_duplex_network
from repro.tls.record import ContentType
from repro.utils.errors import GuardLimitExceeded

from tests.core.conftest import World, establish

WINDOW = 8192
QUARTER = WINDOW // 4


def _stalled_world():
    """A client stream stalled on its first window, with the server
    (pull mode: no delivery callback) holding that window unread."""
    net, client_host, server_host, _link = simple_duplex_network(delay=0.01)
    world = World(net, client_host, server_host, stream_recv_window=WINDOW)
    establish(world)
    stream_id = world.client.stream_new()
    world.client.streams_attach()
    world.client.send(stream_id, b"\x5a" * (3 * WINDOW))
    world.run(until=world.sim.now + 1.0)
    assert world.client.streams[stream_id].stalled
    assert world.server_session.streams[stream_id].app_buffered() == WINDOW
    return world, stream_id


def _seal(sender, ttype, body, stream_id=None):
    """One sequenced frame sealed by ``sender`` on its primary
    connection, as the raw record bytes TCP would carry."""
    wire = []
    conn = SimpleNamespace(
        conn_id=sender.primary.conn_id, tcp=SimpleNamespace(send=wire.append)
    )
    sender._send_frame(conn, ttype, body, sender.replay.next_seq(), stream_id=stream_id)
    (record,) = wire
    return record


def test_grant_waits_for_a_quarter_window_and_names_consumed_plus_window():
    world, stream_id = _stalled_world()
    server, client = world.server_session, world.client
    stream = server.streams[stream_id]
    sent_before = server.stats["flow_window_updates_sent"]
    assert stream.granted_limit == WINDOW

    assert len(server.recv_data(stream_id, QUARTER - 1)) == QUARTER - 1
    assert stream.granted_limit == WINDOW
    assert server.stats["flow_window_updates_sent"] == sent_before
    assert not any(
        ttype == TType.WINDOW_UPDATE for _, ttype, _, _ in server.replay.unacked_frames()
    )

    assert len(server.recv_data(stream_id, 1)) == 1
    assert stream.granted_limit == QUARTER + WINDOW
    assert server.stats["flow_window_updates_sent"] == sent_before + 1
    grants = [
        framing.decode_window_update(body)
        for _, ttype, _, body in server.replay.unacked_frames()
        if ttype == TType.WINDOW_UPDATE
    ]
    assert grants == [(stream_id, QUARTER + WINDOW)]

    world.run(until=world.sim.now + 1.0)
    assert client.streams[stream_id].send_limit == QUARTER + WINDOW
    assert client.streams[stream_id].send_offset == QUARTER + WINDOW


def test_stale_or_replayed_grant_changes_nothing(monkeypatch):
    world, stream_id = _stalled_world()
    server, client = world.server_session, world.client
    stream = client.streams[stream_id]
    pumps = []
    pump = client._pump
    monkeypatch.setattr(client, "_pump", lambda: (pumps.append(1), pump())[-1])
    received_before = client.stats["flow_window_updates_received"]

    for max_offset in (WINDOW, WINDOW - 1, 1):
        body = framing.encode_window_update(stream_id, max_offset)
        client._on_tcp_data(client.primary, _seal(server, TType.WINDOW_UPDATE, body))
        assert stream.send_limit == WINDOW
        assert stream.stalled
        assert pumps == []
    assert client.stats["flow_window_updates_received"] == received_before + 3

    # A grant that does raise the limit takes effect and re-pumps once.
    body = framing.encode_window_update(stream_id, WINDOW + 1)
    client._on_tcp_data(client.primary, _seal(server, TType.WINDOW_UPDATE, body))
    assert stream.send_limit == WINDOW + 1
    assert pumps == [1]


def test_data_past_the_larger_of_grant_and_default_window_fails_the_connection():
    world, stream_id = _stalled_world()
    server, client = world.server_session, world.client
    conn = server.primary
    assert server.streams[stream_id].granted_limit == WINDOW < DEFAULT_STREAM_WINDOW

    def data_record(offset, size):
        body = framing.encode_stream_data(stream_id, offset, b"\x33" * size)
        return _seal(client, TType.STREAM_DATA, body, stream_id=stream_id)

    # Overshoot up to the protocol-default window is accepted (buffered
    # behind the hole the stalled client left).
    server._on_tcp_data(conn, data_record(DEFAULT_STREAM_WINDOW - 100, 100))
    assert conn.usable()
    assert server.streams[stream_id].reassembly_bytes() == 100
    assert server.stats["flow_violations"] == 0

    # One byte past it is a violation.
    record = data_record(DEFAULT_STREAM_WINDOW - 100, 101)
    with pytest.raises(GuardLimitExceeded, match="flow-control limit"):
        server._on_raw_record(conn, ContentType.APPLICATION_DATA, record[5:])
    assert server.stats["flow_violations"] == 1

    guards_before = server.stats["guard_tripped"]
    server._on_tcp_data(conn, data_record(DEFAULT_STREAM_WINDOW, 1))
    assert server.stats["flow_violations"] == 2
    assert server.stats["guard_tripped"] == guards_before + 1
    assert conn.state == conn.FAILED
