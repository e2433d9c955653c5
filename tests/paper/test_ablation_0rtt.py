"""A5 — Handshake latency: 0-RTT TCPLS vs 1-RTT vs TLS/TCP vs QUIC
(section 4.2).

"With this change, TCPLS would support a 0-RTT connection establishment
similar to QUIC."  The test measures time until the server
application sees the client's first request byte, across handshake
variants, on a symmetric path with a 20 ms one-way delay — so results
read naturally in round trips (1 RTT = 40 ms).
"""

from repro.baselines.apps import TlsFileClient, TlsFileServer
from repro.core.session import TcplsContext, TcplsServer, TcplsSession
from repro.netsim.scenarios import simple_duplex_network
from repro.netsim.udp import UdpStack
from repro.quic import QuicClient, QuicConfig, QuicServer
from repro.tcp.stack import TcpStack
from repro.tls.certificates import CertificateAuthority, TrustStore
from repro.tls.session import SessionTicketStore

from tests.helpers import report

DELAY = 0.020
RTT = 2 * DELAY
#: Round trips to the first request byte, exact on the simulated clock.
#: A change to any handshake or to TCP's timing moves them: re-pin in a
#: behaviour change, never alongside a performance one.
PINNED_RTTS = {
    "TCP": 1.500458,
    "TCP + TFO": 0.500154,
    "TLS 1.3 / TCP (full)": 2.502594,
    "TLS 1.3 / TCP (resumed)": 2.502126,
    "QUIC (1-RTT)": 1.502948,
    "QUIC (0-RTT)": 0.500898,
    "TCPLS (1-RTT)": 2.503028,
    "TCPLS (0-RTT + TFO)": 0.500766,
}


def _pki(tag):
    ca = CertificateAuthority("Bench Root", seed=b"a5" + tag)
    identity = ca.issue_identity("server.example", seed=b"a5srv" + tag)
    trust = TrustStore()
    trust.add_authority(ca)
    return identity, trust


def _tcp_request_time(fast_open):
    net, client_host, server_host, _ = simple_duplex_network(delay=DELAY)
    client = TcpStack(client_host, seed=2)
    server = TcpStack(server_host, seed=3)
    seen = []
    server.listen(
        80,
        lambda conn: setattr(conn, "on_data", lambda d: seen.append(net.sim.now)),
        fast_open=True,
    )
    if fast_open:
        first = client.connect("10.0.0.2", 80, fast_open=True)  # earn cookie
        net.sim.run(until=1.0)
        first.abort()
        net.sim.run(until=2.0)
    start = net.sim.now
    conn = client.connect(
        "10.0.0.2", 80,
        fast_open=fast_open,
        fast_open_data=b"GET /" if fast_open else b"",
    )
    if not fast_open:
        conn.on_established = lambda: conn.send(b"GET /")
    net.sim.run(until=start + 2.0)
    return seen[0] - start


def _tls_request_time(resume):
    net, client_host, server_host, _ = simple_duplex_network(delay=DELAY)
    identity, trust = _pki(b"tls")
    server_stack = TcpStack(server_host, seed=4)
    client_stack = TcpStack(client_host, seed=5)
    store = SessionTicketStore()
    seen = []
    server = TlsFileServer(server_stack, identity, file_size=10)
    # Instrument: record when the server first receives app data.
    original = server._on_connection

    def wrapped(conn):
        original(conn)
        tls = server.sessions[-1]
        tls.on_application_data = lambda d: seen.append(net.sim.now)

    server_stack._listeners[443].on_connection = wrapped

    def request_once(seed):
        app = TlsFileClient(
            client_stack, "10.0.0.2", trust, ticket_store=store, seed=seed
        )
        start = net.sim.now
        app.tls.on_handshake_complete = lambda: (
            setattr(app, "handshake_time", net.sim.now - app.start_time),
            app.tls.send(b"GET /"),
        )
        net.sim.run(until=start + 3.0)
        return start

    start = request_once(31)
    if resume:
        start = request_once(32)
        return seen[-1] - start
    return seen[0] - start


def _quic_request_time(zero_rtt):
    net, client_host, server_host, _ = simple_duplex_network(delay=DELAY)
    identity, trust = _pki(b"quic")
    client_udp = UdpStack(client_host)
    server_udp = UdpStack(server_host)
    store = SessionTicketStore()
    seen = []
    accepted = []

    def on_connection(conn):
        accepted.append(conn)
        conn.on_stream_data = lambda sid, d: seen.append(net.sim.now)
        conn.on_early_data = lambda d: seen.append(net.sim.now)

    QuicServer(server_udp, 443, QuicConfig(identity=identity, seed=6), on_connection)
    config = QuicConfig(
        trust_store=trust, server_name="server.example",
        ticket_store=store, seed=7,
    )
    if zero_rtt:
        warm = QuicClient(client_udp, "10.0.0.2", 443, config)
        net.sim.run(until=1.0)
        warm.close()
        net.sim.run(until=1.5)
        start = net.sim.now
        QuicClient(client_udp, "10.0.0.2", 443, config, early_data=b"GET /")
        net.sim.run(until=start + 2.0)
        return seen[-1] - start
    start = net.sim.now
    client = QuicClient(client_udp, "10.0.0.2", 443, config)
    client.on_handshake_complete = lambda: client.send(
        client.create_stream(), b"GET /"
    )
    net.sim.run(until=start + 2.0)
    return seen[0] - start


def _tcpls_request_time(zero_rtt):
    net, client_host, server_host, _ = simple_duplex_network(delay=DELAY)
    identity, trust = _pki(b"tcpls")
    sessions = []
    seen = []

    def on_session(session):
        sessions.append(session)
        session.on_early_data = lambda d: seen.append(net.sim.now)
        session.on_stream_data = lambda sid, d: seen.append(net.sim.now)

    TcplsServer(
        TcplsContext(identity=identity, seed=8),
        TcpStack(server_host, seed=9),
        on_session=on_session,
    )
    ctx = TcplsContext(
        trust_store=trust, server_name="server.example",
        ticket_store=SessionTicketStore(), seed=10,
    )
    client_stack = TcpStack(client_host, seed=11)
    if zero_rtt:
        warm = TcplsSession(ctx, client_stack)
        warm.connect("10.0.0.2", fast_open=True)
        warm.handshake()
        net.sim.run(until=1.0)
        warm.close()
        net.sim.run(until=2.0)
        start = net.sim.now
        client = TcplsSession(ctx, client_stack)
        client.connect_0rtt("10.0.0.2", early_data=b"GET /")
        net.sim.run(until=start + 2.0)
        return seen[-1] - start
    start = net.sim.now
    client = TcplsSession(ctx, client_stack)
    client.connect("10.0.0.2")
    client.handshake()

    def on_done(**kw):
        stream = client.stream_new()
        client.streams_attach()
        client.send(stream, b"GET /")

    from repro.core.events import Event

    client.on(Event.HANDSHAKE_DONE, on_done)
    net.sim.run(until=start + 2.0)
    return seen[0] - start


def test_a5_time_to_first_request_byte():
    times = {
        "TCP": _tcp_request_time(fast_open=False),
        "TCP + TFO": _tcp_request_time(fast_open=True),
        "TLS 1.3 / TCP (full)": _tls_request_time(resume=False),
        "TLS 1.3 / TCP (resumed)": _tls_request_time(resume=True),
        "QUIC (1-RTT)": _quic_request_time(zero_rtt=False),
        "QUIC (0-RTT)": _quic_request_time(zero_rtt=True),
        "TCPLS (1-RTT)": _tcpls_request_time(zero_rtt=False),
        "TCPLS (0-RTT + TFO)": _tcpls_request_time(zero_rtt=True),
    }
    rows = [
        f"{name:<26} {t * 1000:7.1f} ms   {t / RTT:4.2f} RTT"
        for name, t in times.items()
    ]
    report(f"A5 — Time until the server sees the request (RTT = {RTT * 1000:.0f} ms)", rows)
    # Shape: each removed round trip shows up as ~1 RTT.
    assert times["TCP + TFO"] < times["TCP"]
    assert abs(times["TCP + TFO"] - DELAY) < 0.7 * DELAY  # half an RTT
    assert times["TLS 1.3 / TCP (full)"] > times["TCP"] + 0.9 * RTT
    assert times["QUIC (0-RTT)"] < times["QUIC (1-RTT)"] - 0.9 * RTT
    assert times["TCPLS (0-RTT + TFO)"] < times["TCPLS (1-RTT)"] - 0.9 * RTT
    # The headline: 0-RTT TCPLS ~= 0-RTT QUIC (paper section 4.2).
    assert abs(times["TCPLS (0-RTT + TFO)"] - times["QUIC (0-RTT)"]) < 0.5 * RTT
    # And both deliver in about half an RTT (one one-way delay).
    assert times["TCPLS (0-RTT + TFO)"] < 0.8 * RTT
    assert {name: round(t / RTT, 9) for name, t in times.items()} == PINNED_RTTS
