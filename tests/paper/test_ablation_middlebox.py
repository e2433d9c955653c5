"""A6 — SYN-echo middlebox detection (section 4.5).

"Consider a TCPLS client that copies its SYN header within a TCPLS
message [...].  By comparing the received TCP header with the original
one, the server would immediately and reliably detect the presence of
NAT, transparent proxies or other types of middleboxes."

The test runs the probe over a clean path and over paths with a
NAT, a TCP-option stripper, and a transparent-proxy mangler, and checks
each box is detected and classified.
"""

from repro.core.events import Event
from repro.core.session import TcplsContext, TcplsServer, TcplsSession
from repro.netsim.middlebox import Nat44, OptionStripper, TransparentProxyMangler
from repro.netsim.topology import Network
from repro.tcp.options import KIND_SACK_PERMITTED, KIND_TIMESTAMPS
from repro.tcp.stack import TcpStack
from repro.tls.certificates import CertificateAuthority, TrustStore

from tests.helpers import report


def _world_with(outbound_box=None, inbound_box=None, client_cidr="10.0.0.1/24",
                server_cidr="20.0.0.2/24"):
    net = Network()
    client_host = net.add_host("client")
    server_host = net.add_host("server")
    ci = client_host.add_interface("eth0").configure_ipv4(client_cidr)
    si = server_host.add_interface("eth0").configure_ipv4(server_cidr)
    link = net.connect(ci, si, delay=0.01)
    client_host.add_route("20.0.0.0/24", ci)
    server_host.add_route("20.0.0.0/24", si)
    client_host.add_route("10.0.0.0/24", ci)
    server_host.add_route("10.0.0.0/24", si)
    if outbound_box is not None:
        link.add_transformer(ci, outbound_box)
    if inbound_box is not None:
        link.add_transformer(si, inbound_box)

    ca = CertificateAuthority("Bench Root", seed=b"a6")
    identity = ca.issue_identity("server.example", seed=b"a6srv")
    trust = TrustStore()
    trust.add_authority(ca)
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
    return net, client, sessions


def _probe_path(outbound_box=None, inbound_box=None):
    net, client, sessions = _world_with(outbound_box, inbound_box)
    reports = []
    client.on(Event.PROBE_REPORT, lambda **kw: reports.append(kw))
    client.connect("20.0.0.2")
    client.handshake()
    net.sim.run(until=1.0)
    if not client.handshake_complete:
        return None
    client.send_middlebox_probe()
    net.sim.run(until=2.0)
    return reports[0]["differences"] if reports else None


def test_a6_middlebox_detection():
    nat = Nat44(public_address="20.0.0.9")
    results = {
        "clean path": _probe_path(),
        "NAT44": _probe_path(outbound_box=nat.outbound, inbound_box=nat.inbound),
        "option stripper": _probe_path(
            outbound_box=OptionStripper([KIND_TIMESTAMPS, KIND_SACK_PERMITTED])
        ),
        "transparent proxy": _probe_path(
            outbound_box=TransparentProxyMangler(clamp_mss=536)
        ),
    }
    lines = []
    for path, findings in results.items():
        if findings is None:
            lines.append(f"{path:<18}: (probe failed)")
        elif not findings:
            lines.append(f"{path:<18}: no interference detected")
        else:
            lines.append(f"{path:<18}: {len(findings)} finding(s)")
            lines.extend(f"{'':<20}- {f}" for f in findings)
    report("A6 — SYN-echo middlebox detection", lines)

    assert results["clean path"] == []
    assert results["NAT44"] is not None
    assert any("NAT" in finding for finding in results["NAT44"])
    assert results["option stripper"] is not None
    assert any("stripped" in finding for finding in results["option stripper"])
    assert results["transparent proxy"] is not None
    assert any(
        "MSS clamped" in finding or "proxy" in finding
        for finding in results["transparent proxy"]
    )
