"""Connection migration (section 3.2) and failover (section 2.1)."""

import sys

import pytest

from repro.core import framing, session as session_mod
from repro.core.events import Event
from repro.core.migration import migrate, retire_connection
from repro.netsim.middlebox import RstInjector
from repro.netsim.scenarios import dual_path_network
from tests.core.conftest import World, collect_stream_data


def _dual_world(**overrides):
    topo = dual_path_network(rate_bps=30e6)
    world = World(topo.net, topo.client, topo.server, **overrides)
    world.topo = topo
    return world


def _establish_v4(world, until=1.0):
    conn = world.client.connect(world.topo.server_v4)
    world.client.handshake()
    world.run(until=until)
    assert world.client.handshake_complete
    return conn


def _download(world, total):
    """Server pushes ``total`` bytes to the client on its own stream,
    re-pinning the sending stream as connections come and go (the
    paper's server 'seamlessly switches the path while looping over
    tcpls_send')."""
    server = world.server_session
    received, fins = collect_stream_data(world.client)
    stream = server.stream_new()
    server.streams_attach()
    server.send(stream, b"F" * total)
    return received, stream


def test_migration_five_call_chain(dual_world):
    world = dual_world
    v4_conn = _establish_v4(world)
    received, server_stream = _download(world, 2_000_000)
    world.run(until=1.5)
    got_before = len(received.get(server_stream, b""))
    assert 0 < got_before < 2_000_000

    # Client triggers migration to a v6 connection mid-download.
    v6_conn = world.client.connect(world.topo.server_v6, src=world.topo.client_v6)
    done = []
    client_stream = world.client.stream_new(conn_id=v4_conn)
    world.client.streams_attach()
    migrate(
        world.client, v6_conn, close_stream_id=client_stream, on_done=done.append
    )
    world.run(until=6.0)
    assert done, "migration did not complete"
    assert bytes(received[server_stream]) == b"F" * 2_000_000
    # Data continued to flow after migration over the v6 connection.
    v6_bytes = sum(
        n for _t, conn, n in world.client.delivery_log if conn == v6_conn
    )
    assert v6_bytes > 0


def test_migration_switches_delivery_path(dual_world):
    world = dual_world
    v4_conn = _establish_v4(world)
    received, server_stream = _download(world, 4_000_000)
    world.run(until=1.3)

    v6_conn = world.client.connect(world.topo.server_v6, src=world.topo.client_v6)
    migrate(world.client, v6_conn)
    world.run(until=1.8)
    # Retire the v4 path entirely (the demo closes the v4 connection).
    retire_connection(world.client, v4_conn)
    world.run(until=10.0)
    assert bytes(received[server_stream]) == b"F" * 4_000_000
    by_conn = {}
    for t, conn, n in world.client.delivery_log:
        by_conn.setdefault(conn, [0, 0.0])
        by_conn[conn][0] += n
        by_conn[conn][1] = max(by_conn[conn][1], t)
    # v4 stopped carrying data after retirement; v6 carried the rest.
    assert by_conn[v6_conn][0] > 1_000_000
    assert by_conn[v4_conn][1] < by_conn[v6_conn][1]


def test_failover_on_spurious_rst(dual_world):
    """A middlebox RST kills the TCP connection; TCPLS reconnects via
    JOIN and replays lost records (paper section 2.1)."""
    world = _dual_world()
    _establish_v4(world)
    # Install an RST injector on the v4 path, triggered mid-transfer.
    injector = RstInjector(trigger_bytes=400_000)
    client_iface = world.topo.client.interfaces["eth0"]
    world.topo.v4_links[0].add_transformer(client_iface, injector)

    received, fins = collect_stream_data(world.server_session)
    failovers = []
    world.client.on(Event.FAILOVER, lambda **kw: failovers.append(kw))

    stream = world.client.stream_new()
    world.client.streams_attach()
    payload = bytes(i % 256 for i in range(1_500_000))
    world.client.send(stream, payload)
    world.run(until=20.0)
    assert injector.fired
    assert failovers, "failover did not trigger"
    assert bytes(received[stream]) == payload  # nothing lost, nothing duplicated


def test_failover_uses_existing_second_connection(dual_world):
    world = _dual_world()
    _establish_v4(world)
    v6_conn = world.client.connect(world.topo.server_v6, src=world.topo.client_v6)
    world.client.handshake(conn_id=v6_conn)
    world.run(until=2.0)

    received, _ = collect_stream_data(world.server_session)
    stream = world.client.stream_new()  # pinned to primary (v4)
    world.client.streams_attach()
    payload = b"R" * 2_000_000
    world.client.send(stream, payload)
    world.run(until=2.5)
    # Cut the v4 path: the v4 TCP connection eventually dies; streams
    # re-pin onto the surviving v6 connection.
    world.topo.cut_v4_path()
    world.run(until=40.0)
    assert bytes(received[stream]) == payload
    v6_share = sum(
        n for _t, conn, n in world.server_session.delivery_log if conn != 0
    )
    assert v6_share > 0


def test_no_failover_when_disabled(dual_world):
    world = _dual_world(auto_failover=False)
    _establish_v4(world)
    received, _ = collect_stream_data(world.server_session)
    stream = world.client.stream_new()
    world.client.streams_attach()
    world.client.send(stream, b"x" * 2_000_000)
    world.run(until=1.5)
    world.topo.cut_v4_path()
    world.run(until=20.0)
    # Transfer never completes: no failover, no alternate path.
    assert len(received.get(stream, b"")) < 2_000_000
    assert not world.client.events.events_named(Event.FAILOVER)


def _starve_acks(monkeypatch):
    """No TCPLS ACK within the test: every sent frame stays unacked."""
    monkeypatch.setattr(session_mod, "ACK_EVERY", 100000)
    monkeypatch.setattr(session_mod, "ACK_FLUSH_DELAY", 30.0)


def test_dedup_after_replay(dual_world, monkeypatch):
    """Frames that arrived but were unACKed at failure time are replayed;
    the receiver must deduplicate them."""
    _starve_acks(monkeypatch)  # forces replay overlap
    world = _dual_world()
    _establish_v4(world)
    v6_conn = world.client.connect(world.topo.server_v6, src=world.topo.client_v6)
    world.client.handshake(conn_id=v6_conn)
    world.run(until=2.0)
    received, _ = collect_stream_data(world.server_session)
    stream = world.client.stream_new()
    world.client.streams_attach()
    payload = bytes(i % 253 for i in range(4_000_000))
    world.client.send(stream, payload)
    world.run(until=2.3)
    assert 0 < len(received.get(stream, b"")) < len(payload)  # mid-transfer
    world.topo.cut_v4_path()
    world.run(until=60.0)
    assert bytes(received[stream]) == payload
    assert world.client.stats["frames_replayed"] > 0
    assert world.server_session.tracker.duplicates > 0


def test_send_and_replay_paths_never_reparse_the_frame_they_built(monkeypatch):
    """``_send_frame`` is told the stream id by its callers (the sender
    built the body; the replay buffer stored the id next to it), so the
    STREAM_DATA decoder runs on the receive path only — through a
    two-record transfer with one forced failover and its replay."""
    _starve_acks(monkeypatch)  # nothing ACKed: all replayed
    world = _dual_world()
    _establish_v4(world)
    v6_conn = world.client.connect(world.topo.server_v6, src=world.topo.client_v6)
    world.client.handshake(conn_id=v6_conn)
    world.run(until=2.0)

    decoded, reparsed = [], []
    original = framing.decode_stream_data

    def watched(body):
        callers = set()
        frame = sys._getframe(1)
        while frame is not None:
            callers.add(frame.f_code.co_name)
            frame = frame.f_back
        decoded.append(len(body))
        if callers & {"_send_frame", "_replay_unacked", "_send_stream_chunk"}:
            reparsed.append(sorted(callers))
        return original(body)

    monkeypatch.setattr(framing, "decode_stream_data", watched)
    injector = RstInjector(trigger_bytes=20_000)
    world.topo.v4_links[0].add_transformer(
        world.topo.client.interfaces["eth0"], injector
    )
    received, _ = collect_stream_data(world.server_session)
    stream = world.client.stream_new()  # pinned to the v4 primary
    world.client.streams_attach()
    payload = bytes(i % 251 for i in range(26_000))
    sent_before = world.client.stats["records_sent"]
    world.client.send(stream, payload)
    world.run(until=10.0)

    assert injector.fired and world.client.events.events_named(Event.FAILOVER)
    assert world.client.stats["frames_replayed"] >= 2
    assert world.client.stats["records_sent"] - sent_before >= 4  # 2 sent + replay
    assert bytes(received[stream]) == payload
    assert len([size for size in decoded if size > 1_000]) >= 2  # the receiver's
    assert reparsed == []
