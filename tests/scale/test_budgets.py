"""Per-session memory budgets: fail-closed caps on buffered bytes.

The per-stream reassembly cap (PR 4) bounds one stream; these tests
cover the *session-wide* budget added for server-farm scale: many
streams each under their own cap must not sum to a hoard, and a sender
whose replay buffer outruns the peer's ACKs must be refused before the
process swells.
"""

import pytest

from repro.core import frames, framing
from repro.core.frames import MAX_REASSEMBLY_BYTES, MAX_SESSION_MEMORY
from repro.core.framing import TType
from repro.core.reliability import ReplayBuffer
from repro.netsim.scenarios import simple_duplex_network
from repro.utils.errors import GuardLimitExceeded

from tests.core.conftest import World, collect_stream_data, establish


def _world():
    net, client_host, server_host, link = simple_duplex_network(delay=0.01)
    world = World(net, client_host, server_host)
    world.link = link
    return world


def _stream_frame(seq, stream_id, offset, size):
    return framing.Frame(
        ttype=TType.STREAM_DATA,
        seq=seq,
        body=framing.encode_stream_data(stream_id, offset, b"\x55" * size),
    )


def test_recv_budget_trips_across_streams_each_under_stream_cap():
    # Five streams each park ~3.9 MiB out of order (behind a hole, inside
    # the flow-control window): every stream stays under its own 4 MiB
    # cap, four of them fit the 16 MiB session budget, the fifth does not.
    size = MAX_REASSEMBLY_BYTES - (100 << 10)
    assert 4 * size <= MAX_SESSION_MEMORY < 5 * size
    world = _world()
    establish(world)
    server = world.server_session
    conn = server.primary
    for i, stream_id in enumerate((2, 4, 6, 8)):
        frames.on_stream_data(
            server, conn, _stream_frame(i + 1, stream_id, 50_000, size)
        )
    assert server.session_memory_bytes() == 4 * size
    with pytest.raises(GuardLimitExceeded, match="session buffered memory"):
        frames.on_stream_data(server, conn, _stream_frame(5, 10, 50_000, size))


def test_send_budget_refuses_oversized_queue():
    world = _world()
    establish(world)
    stream = world.client.stream_new()
    world.client.streams_attach()
    with pytest.raises(GuardLimitExceeded, match="session memory budget"):
        world.client.send(stream, b"\xaa" * (MAX_SESSION_MEMORY + 1))
    assert world.client.stats["guard_tripped"] >= 1
    assert not world.client.streams[stream].send_buffer  # nothing was queued


def test_session_memory_drains_back_to_zero_after_clean_exchange():
    world = _world()
    establish(world)
    received, _fins = collect_stream_data(world.server_session)
    stream = world.client.stream_new()
    world.client.streams_attach()
    world.client.send(stream, b"payload " * 4_000)
    # Mid-flight the replay buffer holds unacked frames...
    assert world.client.session_memory_bytes() > 0
    assert world.client.describe()["memory_bytes"] == world.client.session_memory_bytes()
    world.run(until=5.0)
    # ...and once the peer's TCPLS ACKs cover them, the budget drains.
    assert bytes(received[stream]) == b"payload " * 4_000
    assert world.client.session_memory_bytes() == 0
    assert world.server_session.session_memory_bytes() == 0


def test_replay_buffer_tracks_pending_bytes_incrementally():
    replay = ReplayBuffer()
    replay.store(1, 0x10, 1, b"a" * 100)
    replay.store(2, 0x10, 1, b"b" * 50)
    assert replay.pending_bytes() == 150
    replay.store(2, 0x10, 1, b"c" * 80)  # overwrite replaces, not adds
    assert replay.pending_bytes() == 180
    assert replay.on_ack(1) == 1
    assert replay.pending_bytes() == 80
    assert replay.on_ack(2) == 1
    assert replay.pending_bytes() == 0


def test_budget_defaults_are_sane():
    # The session budget must dominate the per-stream cap, or a single
    # legal stream could trip the session guard.
    assert MAX_SESSION_MEMORY >= MAX_REASSEMBLY_BYTES
    assert MAX_SESSION_MEMORY >= 1 << 20
