"""Session-level observability and the session's metrics document.

The central invariant tested here is **zero perturbation**: running the
exact same simulated TCPLS transfer with an enabled and a disabled hub
must produce bit-identical results — same delivered bytes, same number
of simulator events, same finishing time, same packets on the wire
(pcap), same session events.
"""

from repro.core.events import Event
from repro.core.session import TcplsContext, TcplsServer, TcplsSession
from repro.netsim.pcap import PcapWriter
from repro.netsim.scenarios import simple_duplex_network
from repro.obs import Observability
from repro.tcp.stack import TcpStack
from repro.tls.certificates import CertificateAuthority, TrustStore

FILE_SIZE = 300_000


def _run_transfer(observed=True, pcap_path=None, loss_rate=0.0):
    """One fixed TCPLS transfer; every seed pinned so runs are replicas."""
    # Two process-global counters leak across runs: the IP identification
    # counter (stamped into every pcap header) and the session counter
    # (mixed into each session's RNG seed).  Rewind both so two runs in
    # one process are true replicas and the pcaps can be compared raw.
    from repro.core import session as session_module
    from repro.netsim import packet

    packet._next_packet_id = 0
    session_module._session_counter[0] = 0
    net, client_host, server_host, link = simple_duplex_network(
        delay=0.01, loss_rate=loss_rate, seed=9
    )
    # Unobserved: every session shares one disabled hub.
    hub = {} if observed else {"observability": Observability(net.sim, enabled=False)}
    writer = None
    if pcap_path is not None:
        writer = PcapWriter(pcap_path, net.sim)
        link.add_transformer(list(client_host.interfaces.values())[0], writer)
    ca = CertificateAuthority("Obs Root", seed=b"obs")
    identity = ca.issue_identity("server.example", seed=b"obssrv")
    trust = TrustStore()
    trust.add_authority(ca)
    sessions = []
    TcplsServer(
        TcplsContext(identity=identity, seed=2, **hub),
        TcpStack(server_host, seed=3),
        on_session=sessions.append,
    )
    client = TcplsSession(
        TcplsContext(
            trust_store=trust, server_name="server.example", seed=4, **hub
        ),
        TcpStack(client_host, seed=5),
    )
    client.connect("10.0.0.2")
    client.handshake()
    net.sim.run(until=1.0)
    received = bytearray()
    sessions[0].on_stream_data = lambda sid, d: received.extend(d)
    stream = client.stream_new()
    client.streams_attach()
    client.send(stream, b"\x0b" * FILE_SIZE)
    net.sim.run(until=30.0)
    if writer is not None:
        writer.close()
    assert bytes(received) == b"\x0b" * FILE_SIZE
    return net, client, sessions[0]


def test_telemetry_does_not_perturb_the_simulation(tmp_path):
    on_pcap = str(tmp_path / "on.pcap")
    off_pcap = str(tmp_path / "off.pcap")
    net_on, client_on, server_on = _run_transfer(
        observed=True, pcap_path=on_pcap, loss_rate=0.02
    )
    net_off, client_off, server_off = _run_transfer(
        observed=False, pcap_path=off_pcap, loss_rate=0.02
    )
    assert net_on.sim.events_processed == net_off.sim.events_processed
    assert net_on.sim.now == net_off.sim.now
    assert client_on.stats == client_off.stats
    assert client_on.events.timeline == client_off.events.timeline
    assert server_on.events.timeline == server_off.events.timeline
    # The strongest check: every packet on the wire is byte-identical.
    with open(on_pcap, "rb") as a, open(off_pcap, "rb") as b:
        assert a.read() == b.read()


def test_disabled_telemetry_records_nothing():
    _net, client, server = _run_transfer(observed=False)
    assert client.obs is server.obs
    snapshot = client.obs.snapshot()
    assert snapshot["histograms"] == {}
    assert snapshot["timeline"] == []
    # The session's own events are recorded either way.
    assert client.events.events_named(Event.HANDSHAKE_DONE) == [{"conn_id": 0}]


def test_session_records_counters_spans_and_snapshots():
    net, client, server = _run_transfer(observed=True)
    counters = client.obs.telemetry.snapshot()["session.client"]
    assert client.stats["records_sent"] > 0
    assert client.stats["acks_received"] > 0
    assert counters["record_bytes"]["count"] == client.stats["records_sent"]
    assert not any(key.startswith("event.") for key in counters)

    # The handshake is on the session's event timeline, bracketed by
    # CONN_ESTABLISHED and HANDSHAKE_DONE; the tracer holds no copy of it.
    (established, done) = [
        t for t, event, _kwargs in client.events.timeline
        if event in (Event.CONN_ESTABLISHED, Event.HANDSHAKE_DONE)
    ]
    assert 0 < established < done <= 1.0
    assert {record["component"] for record in client.obs.tracer.timeline()} == {"tcp"}

    # TCP snapshots are ``tcp`` points labelled with the transition.
    (sample,) = client.obs.tracer.events_named(Event.HANDSHAKE_DONE)
    assert sample["component"] == "tcp" and sample["conn_id"] == 0
    assert sample["state"] == "ESTABLISHED"
    assert (sample["t"], Event.HANDSHAKE_DONE, {"conn_id": 0}) in client.events.timeline

    # The server side records into its own hub under its own component.
    server_counters = server.obs.telemetry.snapshot()["session.server"]
    assert server_counters["record_bytes"]["count"] > 0
    # Delivered bytes live on the connection and buffered memory is read
    # on demand; the hub holds no copy of either.
    assert sum(c.bytes_delivered for c in server.connections.values()) == FILE_SIZE
    assert server.describe()["memory_bytes"] == server.session_memory_bytes()
    assert not {"stream_bytes_received", "memory.buffered_bytes"} & set(server_counters)


def test_shared_observability_hub_merges_both_sides():
    net, client_host, server_host, _link = simple_duplex_network(delay=0.01)
    shared = Observability(net.sim)
    ca = CertificateAuthority("Obs Root", seed=b"obs2")
    identity = ca.issue_identity("server.example", seed=b"obs2srv")
    trust = TrustStore()
    trust.add_authority(ca)
    sessions = []
    TcplsServer(
        TcplsContext(identity=identity, seed=2, observability=shared),
        TcpStack(server_host, seed=3),
        on_session=sessions.append,
    )
    client = TcplsSession(
        TcplsContext(
            trust_store=trust, server_name="server.example", seed=4,
            observability=shared,
        ),
        TcpStack(client_host, seed=5),
    )
    client.connect("10.0.0.2")
    client.handshake()
    net.sim.run(until=1.0)
    assert client.obs is shared
    counters = shared.telemetry.snapshot()
    assert "session.client" in counters and "session.server" in counters
    # Both sides' handshakes land on one tracer timeline, as the TCP
    # snapshot each side takes at its own HANDSHAKE_DONE.
    done_at = sorted(
        t for session in (client, *sessions)
        for t, event, _kwargs in session.events.timeline
        if event == Event.HANDSHAKE_DONE
    )
    samples = shared.tracer.events_named(Event.HANDSHAKE_DONE)
    assert len(done_at) == 2
    assert [record["t"] for record in samples] == done_at


def test_session_metrics_method_matches_export():
    _net, client, server = _run_transfer(observed=True)
    doc = client.metrics()
    assert doc["role"] == "client"
    assert server.metrics()["role"] == "server"
    assert doc["stats"] == dict(client.stats)
    assert "histograms" in doc and "timeline" in doc
    assert [entry["event"] for entry in doc["events"]] == [
        event for _t, event, _kwargs in client.events.timeline
    ]
    assert doc["connections"] == [c.describe() for c in client.connections.values()]
    primary = doc["connections"][0]
    assert primary["primary"]
    assert primary["tcp"]["state"] == "ESTABLISHED"
    assert primary["tcp"]["delivered_bytes"] > 0
