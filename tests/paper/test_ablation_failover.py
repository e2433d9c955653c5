"""A2 — Failover under RST injection and outage (section 2.1).

"TCPLS can preserve established connections by automatically restarting
the underlying TCP connection upon reception of a spurious reset" —
and, thanks to TCPLS sequence numbers and ACKs, "replay the records that
have been lost."  This test injects a middlebox RST mid-transfer
and compares TCPLS (completes, byte-exact) against layered TLS/TCP
(dies), then measures the failover gap.
"""

from repro.baselines.apps import TlsFileClient, TlsFileServer, file_pattern
from repro.core.events import Event
from repro.core.session import TcplsContext, TcplsServer, TcplsSession
from repro.netsim.middlebox import RstInjector
from repro.netsim.scenarios import simple_duplex_network
from repro.tcp.stack import TcpStack
from repro.tls.certificates import CertificateAuthority, TrustStore

from tests.helpers import report

FILE_SIZE = 2_000_000


def _pki():
    ca = CertificateAuthority("Bench Root", seed=b"a2")
    identity = ca.issue_identity("server.example", seed=b"a2srv")
    trust = TrustStore()
    trust.add_authority(ca)
    return identity, trust


def _tcpls_run():
    net, client_host, server_host, link = simple_duplex_network(delay=0.01)
    identity, trust = _pki()
    injector = RstInjector(trigger_bytes=FILE_SIZE // 3)
    link.add_transformer(list(client_host.interfaces.values())[0], injector)
    sessions = []
    TcplsServer(
        TcplsContext(identity=identity, seed=2),
        TcpStack(server_host, seed=3),
        on_session=sessions.append,
    )
    client = TcplsSession(
        TcplsContext(trust_store=trust, server_name="server.example", seed=4),
        TcpStack(client_host, seed=5),
    )
    client.connect("10.0.0.2")
    client.handshake()
    net.sim.run(until=1.0)
    received = bytearray()
    arrival_times = []
    sessions[0].on_stream_data = lambda sid, d: (
        received.extend(d), arrival_times.append((net.sim.now, len(d)))
    )
    failovers = []
    client.on(Event.FAILOVER, lambda **kw: failovers.append((net.sim.now, kw)))
    stream = client.stream_new()
    client.streams_attach()
    start = net.sim.now
    client.send(stream, file_pattern(FILE_SIZE))
    net.sim.run(until=start + 60.0)
    done = bytes(received) == file_pattern(FILE_SIZE)
    # Measure the delivery gap around the failover.
    gap = 0.0
    if failovers and arrival_times:
        failover_at = failovers[0][0]
        before = max((t for t, _n in arrival_times if t < failover_at), default=start)
        after = min((t for t, _n in arrival_times if t >= failover_at), default=start)
        gap = after - before
    return done, failovers, gap, client.stats["frames_replayed"], injector.fired


def _tls_run():
    net, client_host, server_host, link = simple_duplex_network(delay=0.01)
    identity, trust = _pki()
    injector = RstInjector(trigger_bytes=FILE_SIZE // 3)
    link.add_transformer(list(server_host.interfaces.values())[0], injector)
    server_stack = TcpStack(server_host, seed=6)
    client_stack = TcpStack(client_host, seed=7)
    TlsFileServer(server_stack, identity, file_size=FILE_SIZE)
    app = TlsFileClient(client_stack, "10.0.0.2", trust)
    net.sim.run(until=60.0)
    return bytes(app.received) == file_pattern(FILE_SIZE), app.reset, len(app.received)


def test_a2_failover_vs_layered_tls():
    tcpls_done, failovers, gap, replayed, fired = _tcpls_run()
    tls_done, tls_reset, tls_got = _tls_run()

    report(
        "A2 — Spurious middlebox RST mid-transfer (2 MB)",
        [
            f"TCPLS  : completed={tcpls_done}  failovers={len(failovers)}  "
            f"delivery gap={gap * 1000:.0f} ms  frames replayed={replayed}",
            f"TLS/TCP: completed={tls_done}  connection reset seen={tls_reset}  "
            f"bytes before death={tls_got}",
        ],
    )
    assert fired
    assert tcpls_done, "TCPLS failed to survive the RST"
    assert failovers, "no failover event fired"
    assert replayed > 0, "no records were replayed"
    assert not tls_done, "layered TLS/TCP unexpectedly survived a forged RST"
    # The recovery happens within seconds (user timeout + reconnect + replay).
    assert gap < 15.0
