"""F3 — Figure 3: the TCPLS API workflow, including happy eyeballs.

The figure scripts a client/server exchange through the ``tcpls_*``
API: tcpls_new → tcpls_add_v4/v6 → tcpls_connect (happy-eyeballs chained
with a 50 ms timeout) → tcpls_handshake → stream calls → tcpls_send /
tcpls_receive, with callback events firing on the server.  This
test drives exactly that call sequence and asserts the resulting
event trace matches the figure's flow.
"""

from repro.core.api import (
    tcpls_accept,
    tcpls_add_v4,
    tcpls_add_v6,
    tcpls_handshake,
    tcpls_new,
    tcpls_receive,
    tcpls_send,
    tcpls_send_tcpoption,
    tcpls_stream_new,
    tcpls_streams_attach,
)
from repro.core.events import Event
from repro.core.session import TcplsContext
from repro.netsim.scenarios import dual_path_network
from repro.tcp.options import UserTimeout
from repro.tcp.stack import TcpStack
from repro.tls.certificates import CertificateAuthority, TrustStore

from tests.helpers import report


def _workflow():
    topo = dual_path_network(rate_bps=30e6)
    ca = CertificateAuthority("Bench Root", seed=b"f3")
    identity = ca.issue_identity("server.example", seed=b"f3srv")
    trust = TrustStore()
    trust.add_authority(ca)
    client_stack = TcpStack(topo.client, seed=6)
    server_stack = TcpStack(topo.server, seed=7)

    trace = []
    sessions = []

    # --- server side: tcpls_new() ... tcpls_accept() ----------------------
    def on_session(session):
        sessions.append(session)
        for event in (
            Event.HANDSHAKE_DONE, Event.STREAM_OPENED, Event.JOIN,
            Event.TCP_OPTION_RECEIVED, Event.CONN_ESTABLISHED,
        ):
            session.on(
                event, lambda _e=event, **kw: trace.append(("server", _e))
            )

    tcpls_accept(
        TcplsContext(identity=identity, seed=8), server_stack, on_session=on_session
    )

    # --- client side, following the figure top to bottom ------------------
    client = tcpls_new(
        TcplsContext(trust_store=trust, server_name="server.example", seed=9),
        client_stack,
    )
    tcpls_add_v4(client, topo.client_v4, primary=True)
    tcpls_add_v6(client, topo.client_v6)
    for event in (Event.CONN_ESTABLISHED, Event.HANDSHAKE_DONE, Event.STREAM_ATTACHED):
        client.on(event, lambda _e=event, **kw: trace.append(("client", _e)))

    # [ if (tcpls_connect(addr, NULL) < 0)* tcpls_connect(addr6, timeout)* ]
    race = client.happy_eyeballs_connect(
        topo.server_v4, topo.server_v6, timeout=0.050
    )
    topo.sim.run(until=0.5)
    assert race["winner"] is not None

    tcpls_handshake(client, conn_id=race["winner"])
    topo.sim.run(until=1.0)

    # tcpls_stream_new()* / tcpls_streams_attach()* / tcpls_send_tcpoption()*
    stream = tcpls_stream_new(client)
    tcpls_streams_attach(client)
    tcpls_send_tcpoption(client, UserTimeout(timeout=30))
    tcpls_send(client, stream, b"{TCPLS Data} {APPDATA}")
    topo.sim.run(until=2.0)

    # tcpls_receive() on the server.
    received = tcpls_receive(sessions[0], stream)
    # (tcpls_receive registers the collector lazily; replay for the bench)
    sessions[0].on_stream_data = None
    return topo, client, sessions, trace, race, stream


def test_fig3_api_workflow():
    topo, client, sessions, trace, race, stream = _workflow()

    # The figure's essential ordering on the client:
    client_events = [e for side, e in trace if side == "client"]
    assert client_events[0] == Event.CONN_ESTABLISHED
    assert Event.HANDSHAKE_DONE in client_events
    assert client_events.index(Event.HANDSHAKE_DONE) < client_events.index(
        Event.STREAM_ATTACHED
    )
    # ...and on the server: CB events for handshake, stream, TCP option.
    server_events = [e for side, e in trace if side == "server"]
    assert Event.HANDSHAKE_DONE in server_events
    assert Event.STREAM_OPENED in server_events
    assert Event.TCP_OPTION_RECEIVED in server_events
    # The option was applied ("performs the required setsockopt").
    assert sessions[0].connections[0].tcp.user_timeout == 30.0

    report(
        "Figure 3 — API workflow event trace",
        [
            f"happy-eyeballs winner: conn {race['winner']} "
            f"(v4={race['v4']}, v6={race['v6']})",
            "",
            *[f"  {side:>6}: {event}" for side, event in trace],
        ],
    )


def test_fig3_happy_eyeballs_50ms_timeout_starts_v6():
    """When v4 stalls, the 50 ms chained connect races v6 and wins."""

    topo = dual_path_network(rate_bps=30e6)
    ca = CertificateAuthority("Bench Root", seed=b"f3b")
    identity = ca.issue_identity("server.example", seed=b"f3bsrv")
    trust = TrustStore()
    trust.add_authority(ca)
    client_stack = TcpStack(topo.client, seed=16)
    server_stack = TcpStack(topo.server, seed=17)
    tcpls_accept(TcplsContext(identity=identity, seed=18), server_stack)
    client = tcpls_new(
        TcplsContext(trust_store=trust, server_name="server.example", seed=19),
        client_stack,
    )
    topo.cut_v4_path()
    race = client.happy_eyeballs_connect(
        topo.server_v4, topo.server_v6, timeout=0.050
    )
    topo.sim.run(until=1.0)
    start_v6 = race["v6"]
    tcpls_handshake(client, conn_id=race["winner"])
    topo.sim.run(until=2.0)
    assert race["v6"] is not None  # the 50 ms timeout kicked in
    assert race["winner"] == race["v6"]
    assert client.handshake_complete
