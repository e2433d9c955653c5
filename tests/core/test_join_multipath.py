"""JOIN handshake (Figure 2), multipath aggregation, happy eyeballs."""

import pytest

from repro.core.cookies import COOKIE_BATCH
from repro.core.events import Event
from tests.core.conftest import World, collect_stream_data, make_contexts

from repro.netsim.scenarios import dual_path_network


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


def test_join_attaches_second_connection(dual_world):
    world = dual_world
    _establish_v4(world)
    joins = []
    world.client.on(Event.JOIN, lambda **kw: joins.append(kw["conn_id"]))

    v6_conn = world.client.connect(world.topo.server_v6, src=world.topo.client_v6)
    world.client.handshake(conn_id=v6_conn)  # JOIN, not a new TLS handshake
    world.run(until=2.0)
    assert joins == [v6_conn]
    assert world.client.connections[v6_conn].state == "ACTIVE"
    # The server sees two connections in one session, not two sessions.
    assert len(world.server_sessions) == 1
    assert len(world.server_session.connections) == 2


def test_join_consumes_a_cookie(dual_world):
    world = dual_world
    _establish_v4(world)
    cookies_before = len(world.client.cookie_purse)
    v6_conn = world.client.connect(world.topo.server_v6, src=world.topo.client_v6)
    world.client.handshake(conn_id=v6_conn)
    world.run(until=2.0)
    assert world.server_session.cookie_jar.consumed == 1
    # The JOIN burned one cookie; the server then replenished a full
    # batch over the encrypted channel so failover never runs dry.
    expected = cookies_before - 1 + COOKIE_BATCH
    assert len(world.client.cookie_purse) == expected


def test_join_with_forged_cookie_rejected(dual_world):
    world = dual_world
    _establish_v4(world)
    # Poison the purse with a forged cookie.
    world.client.cookie_purse._cookies[0] = b"\x00" * 16
    v6_conn = world.client.connect(world.topo.server_v6, src=world.topo.client_v6)
    world.client.handshake(conn_id=v6_conn)
    world.run(until=3.0)
    assert world.client.connections[v6_conn].state in ("FAILED", "JOIN_SENT", "CLOSED")
    assert len(world.server_session.connections) == 1
    assert world.server_session.cookie_jar.rejected == 1


def test_cookie_replay_rejected(dual_world):
    world = dual_world
    _establish_v4(world)
    # Duplicate the first cookie so two JOINs use the same one.
    cookie = world.client.cookie_purse._cookies[0]
    world.client.cookie_purse._cookies.insert(0, cookie)
    c1 = world.client.connect(world.topo.server_v6, src=world.topo.client_v6)
    world.client.handshake(conn_id=c1)
    world.run(until=2.0)
    c2 = world.client.connect(world.topo.server_v6, src=world.topo.client_v6)
    world.client.handshake(conn_id=c2)
    world.run(until=4.0)
    states = {world.client.connections[c1].state, world.client.connections[c2].state}
    assert "ACTIVE" in states  # the first join worked
    assert len(world.server_session.connections) == 2  # second was refused


def test_aggregation_uses_both_paths(dual_world):
    world = _dual_world(multipath_mode="aggregate")
    _establish_v4(world)
    v6_conn = world.client.connect(world.topo.server_v6, src=world.topo.client_v6)
    world.client.handshake(conn_id=v6_conn)
    world.run(until=2.0)

    received, _ = collect_stream_data(world.server_session)
    payload = bytes(i % 251 for i in range(3_000_000))
    stream = world.client.stream_new()
    world.client.streams_attach()
    world.client.send(stream, payload)
    world.run(until=30.0)
    assert bytes(received[stream]) == payload
    # Both connections carried a meaningful share.
    per_conn = {}
    for _t, conn_id, nbytes in world.server_session.delivery_log:
        per_conn[conn_id] = per_conn.get(conn_id, 0) + nbytes
    assert len(per_conn) == 2
    shares = sorted(per_conn.values())
    assert shares[0] > 0.2 * sum(shares)


def test_aggregation_faster_than_single_path():
    def transfer_time(multipath):
        world = _dual_world(
            multipath_mode="aggregate" if multipath else "pinned"
        )
        _establish_v4(world)
        if multipath:
            v6 = world.client.connect(world.topo.server_v6, src=world.topo.client_v6)
            world.client.handshake(conn_id=v6)
            world.run(until=2.0)
        received, _ = collect_stream_data(world.server_session)
        payload = b"x" * 6_000_000
        stream = world.client.stream_new()
        world.client.streams_attach()
        start = world.sim.now
        world.client.send(stream, payload)
        done = {}

        def poll():
            got = received.get(stream)
            if got is not None and len(got) >= len(payload):
                done["t"] = world.sim.now - start
            else:
                world.sim.schedule(0.05, poll)

        world.sim.schedule(0.05, poll)
        world.run(until=60.0)
        assert len(received[stream]) == len(payload)
        return done["t"]

    single = transfer_time(False)
    aggregated = transfer_time(True)
    # Two 30 Mbps paths should beat one by a clear margin.
    assert aggregated < single * 0.75


def test_happy_eyeballs_prefers_faster_family(dual_world):
    world = dual_world
    # Make v4 unusable: SYNs die on the cut path, so v6 wins the race.
    world.topo.cut_v4_path()
    result = world.client.happy_eyeballs_connect(
        world.topo.server_v4, world.topo.server_v6, timeout=0.050
    )
    world.run(until=2.0)
    assert result["winner"] is not None
    assert result["winner"] == result["v6"]
    world.client.handshake(conn_id=result["winner"])
    world.run(until=3.0)
    assert world.client.handshake_complete


def test_happy_eyeballs_v4_wins_when_healthy(dual_world):
    world = dual_world
    result = world.client.happy_eyeballs_connect(
        world.topo.server_v4, world.topo.server_v6, timeout=0.050
    )
    world.run(until=1.0)
    # v4 establishes well inside 50 ms, so v6 is never even attempted.
    assert result["winner"] == result["v4"]
    assert result["v6"] is None
