"""A1 — Multipath bandwidth aggregation vs single path (sections 2.4-2.5).

The paper: "the application may configure various TCPLS behaviours.
Among them, we support HOL-blocking avoidance, aggregation of bandwidth
with multipathing" — and notes the two are mutually exclusive.  This
test measures single-path vs aggregated goodput over the two
30 Mbps paths and verifies HOL-avoidance mode keeps streams independent.

The aggregation ratio is pinned exactly: the run is a pure function of
its seeds once the process-global counters are rewound.
"""

from repro.core.session import TcplsContext, TcplsServer, TcplsSession
from repro.netsim.scenarios import dual_path_network
from repro.tcp.stack import TcpStack
from repro.tls.certificates import CertificateAuthority, TrustStore

from tests.helpers import report

FILE_SIZE = 6_000_000
RATE = 30e6
#: Single-path over aggregated completion time, exact on the simulated
#: clock.  A change to TCP, the multipath scheduler or the record layer
#: moves it: re-pin in a behaviour change, never alongside a perf one.
PINNED_SPEEDUP = 1.8


def _world(multipath_mode):
    topo = dual_path_network(rate_bps=RATE)
    ca = CertificateAuthority("Bench Root", seed=b"a1")
    identity = ca.issue_identity("server.example", seed=b"a1srv")
    trust = TrustStore()
    trust.add_authority(ca)
    sessions = []
    TcplsServer(
        TcplsContext(identity=identity, seed=2, multipath_mode=multipath_mode),
        TcpStack(topo.server, seed=3),
        on_session=sessions.append,
    )
    client = TcplsSession(
        TcplsContext(
            trust_store=trust, server_name="server.example", seed=4,
            multipath_mode=multipath_mode,
        ),
        TcpStack(topo.client, seed=5),
    )
    return topo, client, sessions


def _transfer(multipath_mode, use_both_paths):
    topo, client, sessions = _world(multipath_mode)
    client.connect(topo.server_v4)
    client.handshake()
    topo.sim.run(until=1.0)
    if use_both_paths:
        v6 = client.connect(topo.server_v6, src=topo.client_v6)
        client.handshake(conn_id=v6)
        topo.sim.run(until=1.5)
    received = bytearray()
    sessions[0].on_stream_data = lambda sid, d: received.extend(d)
    stream = client.stream_new()
    client.streams_attach()
    start = topo.sim.now
    client.send(stream, b"\xa1" * FILE_SIZE)
    done = []

    def poll():
        if len(received) >= FILE_SIZE:
            done.append(topo.sim.now - start)
        else:
            topo.sim.schedule(0.02, poll)

    topo.sim.schedule(0.02, poll)
    topo.sim.run(until=start + 120.0)
    assert bytes(received) == b"\xa1" * FILE_SIZE
    per_conn = {}
    for _t, conn_id, n in sessions[0].delivery_log:
        per_conn[conn_id] = per_conn.get(conn_id, 0) + n
    return done[0], per_conn


def test_a1_aggregation_vs_single_path():
    single_time, _single_share = _transfer("pinned", use_both_paths=False)
    agg_time, agg_share = _transfer("aggregate", use_both_paths=True)
    single_mbps = FILE_SIZE * 8 / single_time / 1e6
    agg_mbps = FILE_SIZE * 8 / agg_time / 1e6
    speedup = single_time / agg_time

    report(
        "A1 — Bandwidth aggregation (two 30 Mbps paths)",
        [
            f"single path : {single_time:6.2f} s  ({single_mbps:5.1f} Mbps)",
            f"aggregated  : {agg_time:6.2f} s  ({agg_mbps:5.1f} Mbps)",
            f"speedup     : {speedup:4.2f}x  (ideal 2.0x)",
            f"per-connection bytes (aggregated): {agg_share}",
        ],
    )
    # Shape: aggregation combines the paths — a clear speedup with both
    # connections carrying a meaningful share.
    assert speedup > 1.4
    assert len(agg_share) == 2
    assert min(agg_share.values()) > 0.15 * sum(agg_share.values())
    assert round(speedup, 9) == PINNED_SPEEDUP


def test_a1_hol_avoidance_streams_stay_independent():
    """HOL-avoidance: streams pinned per-connection; stalling one path
    leaves the other stream's delivery untouched (section 2.1)."""
    topo, client, sessions = _world("pinned")
    client.connect(topo.server_v4)
    client.handshake()
    topo.sim.run(until=1.0)
    v6 = client.connect(topo.server_v6, src=topo.client_v6)
    client.handshake(conn_id=v6)
    topo.sim.run(until=1.5)
    deliveries = []
    sessions[0].on_stream_data = lambda sid, d: deliveries.append(
        (topo.sim.now, sid, len(d))
    )
    stream_a = client.stream_new(conn_id=0)
    stream_b = client.stream_new(conn_id=v6)
    client.streams_attach()
    # Stall the v4 middle link for a while: stream A freezes, B flows.
    topo.v4_links[1].set_down()
    client.send(stream_a, b"A" * 400_000)
    client.send(stream_b, b"B" * 400_000)
    topo.sim.run(until=3.5)
    b_done = sum(n for _t, sid, n in deliveries if sid == stream_b) >= 400_000
    a_blocked = sum(n for _t, sid, n in deliveries if sid == stream_a) == 0
    topo.v4_links[1].set_up()
    topo.sim.run(until=30.0)
    totals = {}
    for _t, sid, n in deliveries:
        totals[sid] = totals.get(sid, 0) + n
    report(
        "A1b — HOL avoidance: v4 outage while both streams send",
        [
            f"stream B (v6) complete during v4 outage: {b_done}",
            f"stream A (v4) stalled during outage:     {a_blocked}",
            f"final totals: {totals}",
        ],
    )
    assert b_done, "the v6 stream was HOL-blocked by the v4 outage"
    assert totals[stream_a] == 400_000 and totals[stream_b] == 400_000
