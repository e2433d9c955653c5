"""F2 — Figure 2: attaching additional TCP connections via JOIN.

The figure's flow: the client completes a TCPLS handshake over IPv4; the
server's encrypted ServerHello flight advertises cookies (α0..αn); the
client then opens an IPv6 connection and sends
``ClientHello+JOIN(CONNID, COOKIE)``; the server validates, discards the
cookie, and the connection joins the session.  This test runs that
flow, captures the message sequence on both paths, and verifies the
security properties (single-use cookies, no keys in clear).
"""

from repro.core import join as joinmod
from repro.core.cookies import COOKIE_BATCH
from repro.core.events import Event
from repro.core.session import TcplsContext, TcplsServer, TcplsSession
from repro.netsim.scenarios import dual_path_network
from repro.tcp.segment import TcpSegment
from repro.tcp.stack import TcpStack
from repro.tls import messages as m
from repro.tls.certificates import CertificateAuthority, TrustStore
from repro.tls.record import ContentType, RecordDecoder

from tests.helpers import report


def _build_world():
    topo = dual_path_network(rate_bps=30e6)
    ca = CertificateAuthority("Bench Root", seed=b"f2")
    identity = ca.issue_identity("server.example", seed=b"f2srv")
    trust = TrustStore()
    trust.add_authority(ca)
    client_stack = TcpStack(topo.client, seed=2)
    server_stack = TcpStack(topo.server, seed=3)
    sessions = []
    TcplsServer(
        TcplsContext(identity=identity, seed=5),
        server_stack,
        on_session=sessions.append,
    )
    client = TcplsSession(
        TcplsContext(trust_store=trust, server_name="server.example", seed=4),
        client_stack,
    )
    return topo, client, sessions


class _Recorder:
    """Pass-through link transformer keeping every (time, TCP segment)."""

    def __init__(self, sim):
        self.sim = sim
        self.segments = []

    def __call__(self, datagram):
        segment = TcpSegment.from_bytes(datagram.payload, verify_checksum=False)
        self.segments.append((self.sim.now, segment))
        return datagram

    def lines(self, limit):
        return [f"  {t:9.6f}  {s.summary()}" for t, s in self.segments[:limit]]


def _run_join(topo, client, sessions):
    v4_trace = _Recorder(topo.sim)
    v6_trace = _Recorder(topo.sim)
    topo.v4_links[0].add_transformer(topo.client.interfaces["eth0"], v4_trace)
    topo.v6_links[0].add_transformer(topo.client.interfaces["eth1"], v6_trace)

    client.connect(topo.server_v4)
    client.handshake()
    topo.sim.run(until=1.0)
    joins = []
    client.on(Event.JOIN, lambda **kw: joins.append(kw))
    v6_conn = client.connect(topo.server_v6, src=topo.client_v6)
    client.handshake(conn_id=v6_conn)
    topo.sim.run(until=2.0)
    return v4_trace, v6_trace, joins, v6_conn


def test_fig2_join_flow():
    topo, client, sessions = _build_world()
    v4_trace, v6_trace, joins, v6_conn = _run_join(topo, client, sessions)

    server = sessions[0]
    # The figure's outcome: one session, two connections.
    assert joins and joins[0]["conn_id"] == v6_conn
    assert len(server.connections) == 2
    # Cookies were delivered encrypted and consumed exactly once.
    assert server.cookie_jar.consumed == 1
    # The JOIN burned one of the handshake's cookies and the server
    # topped the purse up with a fresh batch over the encrypted channel.
    cookies_left = len(client.cookie_purse)
    assert cookies_left == 2 * COOKIE_BATCH - 1

    # No key material in clear: the first client->server record on the
    # v6 path is the JOIN ClientHello, and it carries no key_share.
    decoder = RecordDecoder()
    decoder.feed(next(s.payload for _t, s in v6_trace.segments if s.payload))
    outer_type, record = next(decoder.raw_records())
    assert outer_type == ContentType.HANDSHAKE
    ((msg_type, body, _raw),) = m.parse_handshake_frames(record)
    assert msg_type == m.CLIENT_HELLO
    extensions = {ext_type for ext_type, _ in m.ClientHello.from_body(body).extensions}
    assert joinmod.EXT_TCPLS_JOIN in extensions
    assert m.EXT_KEY_SHARE not in extensions

    report(
        "Figure 2 — JOIN handshake message flow",
        [
            "v4 path (initial handshake):",
            *v4_trace.lines(6),
            "...",
            "v6 path (JOIN):",
            *v6_trace.lines(5),
            "",
            f"cookies minted={server.cookie_jar.consumed + server.cookie_jar.outstanding()}"
            f" consumed={server.cookie_jar.consumed} left(client)={cookies_left}",
            f"server connections in one session: {len(server.connections)}",
        ],
    )


def test_fig2_replayed_cookie_rejected():
    topo, client, sessions = _build_world()
    client.connect(topo.server_v4)
    client.handshake()
    topo.sim.run(until=1.0)
    cookie = client.cookie_purse._cookies[0]
    client.cookie_purse._cookies.insert(0, cookie)  # force reuse
    first = client.connect(topo.server_v6, src=topo.client_v6)
    client.handshake(conn_id=first)
    topo.sim.run(until=2.0)
    second = client.connect(topo.server_v6, src=topo.client_v6)
    client.handshake(conn_id=second)
    topo.sim.run(until=4.0)
    server = sessions[0]
    assert server.cookie_jar.rejected == 1
    assert len(server.connections) == 2  # replay did not attach
