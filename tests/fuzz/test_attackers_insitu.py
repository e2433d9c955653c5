"""In-situ adversaries: keyless attackers against live two-path sessions.

The security contract under test: an attacker on (or off) the wire
without the TLS keys can degrade an established TCPLS session — trip
guards, force a path failover — but can never desynchronise the
delivered byte stream, crash an endpoint, or break exactly-once
delivery.  Every run is a full two-path transfer checked with the
PR 2 recovery invariants, and every attack is seeded + count-bounded
so the whole thing replays deterministically.
"""

from repro.core.events import Event
from repro.core.session import TcplsContext, TcplsServer, TcplsSession
from repro.faults import FaultPlan
from repro.netsim.middlebox import (
    PayloadTamperer,
    RstBlaster,
    SegmentInjector,
    junk_payloads,
)

from repro.netsim.middlebox import _parse_tcp, _reserialize
from repro.netsim.scenarios import simple_duplex_network
from repro.tcp.stack import TcpStack
from repro.tls.certificates import CertificateAuthority, TrustStore

from tests.faults.conftest import establish_paths, fault_world, run_scenario

PAYLOAD = bytes(range(256)) * 2048  # 512 KiB


def _attacked_world(seed=7, **overrides):
    return establish_paths(fault_world(paths=2, seed=seed, rate_bps=5e6,
                                       **overrides))


def _client_to_server(world, attacker, path=0):
    """Install ``attacker`` on the client->server direction of ``path``."""
    link = world.topo.links[path]
    link.add_transformer(world.topo.client.interfaces[f"eth{path}"], attacker)
    return attacker


def _server_to_client(world, attacker, path=0):
    link = world.topo.links[path]
    link.add_transformer(world.topo.server.interfaces[f"eth{path}"], attacker)
    return attacker


def test_segment_injector_rejected_and_survived():
    """On-path injection of in-window forged segments: the victim's TCP
    accepts the bytes (they're valid TCP), the record/AEAD layer rejects
    them, the poisoned connection dies, the transfer completes on the
    clean path exactly once."""
    world = _attacked_world()
    injector = _client_to_server(
        world, SegmentInjector(junk_payloads(seed=3), start_after=3, every=3)
    )
    failures = []
    world.server_session.on(
        Event.CONN_FAILED, lambda **kw: failures.append(kw)
    )
    report, _ = run_scenario(
        world, FaultPlan(name="segment-injection"), PAYLOAD, slack=4.0
    )
    report.assert_ok()
    assert injector.injected >= 1
    server = world.server_session
    rejections = server.stats["decode_rejected"] + server.stats["guard_tripped"]
    assert rejections >= 1, "injected junk was never rejected"
    assert failures, "poisoned connection should have been torn down"


def test_payload_tamperer_forces_failover_exactly_once():
    """A keyless MITM rewriting genuine ciphertext desyncs the AEAD
    sequence; the session must detect the auth-failure run, trip the
    guard, fail the path over, and still deliver every byte once."""
    world = _attacked_world()
    tamperer = _client_to_server(
        world, PayloadTamperer(count=2, start_after=4, seed=5)
    )
    report, _ = run_scenario(
        world, FaultPlan(name="payload-tamper"), PAYLOAD, slack=4.0
    )
    report.assert_ok()
    assert tamperer.tampered >= 1
    server = world.server_session
    assert (
        server.stats["guard_tripped"] + server.stats["decode_rejected"] >= 1
    ), "tampering was never detected"


def test_blind_rst_attack_detected_and_failed_over():
    """Satellite 3: the classic RST injection against an established
    TCPLS session.  With exact in-window sequence numbers (the strongest
    off-path attacker), the victim TCP genuinely resets; the session
    must surface the reset, fail over to the surviving path, and keep
    the stream exactly-once."""
    world = _attacked_world()
    blaster = _server_to_client(
        world, RstBlaster(count=3, start_after=4, blind=False)
    )
    failures = []
    world.client.on(Event.CONN_FAILED, lambda **kw: failures.append(kw))
    report, _ = run_scenario(
        world, FaultPlan(name="blind-rst"), PAYLOAD, slack=4.0
    )
    report.assert_ok()
    assert blaster.fired >= 1
    assert failures, "RST should have killed a connection (reset detection)"
    # Failover happened: the transfer finished even though a path died.
    assert world.client.handshake_complete
    assert not world.client.session_closed


def test_truly_blind_rst_mostly_bounces_off():
    """With random sequence numbers, the in-window RST check discards
    the forgeries: the session shouldn't even notice."""
    world = _attacked_world()
    blaster = _server_to_client(
        world, RstBlaster(count=4, start_after=4, blind=True, seed=9)
    )
    report, _ = run_scenario(
        world, FaultPlan(name="random-rst"), PAYLOAD, slack=4.0
    )
    report.assert_ok()
    assert blaster.fired >= 1


def test_attacked_run_exports_nonzero_hardening_counters():
    """The acceptance run: attacker traffic plus a garbage-spraying raw
    connection, and both hardening counters land nonzero in the exported
    telemetry."""
    world = _attacked_world()
    _client_to_server(world, PayloadTamperer(count=2, start_after=4, seed=5))

    # A keyless peer talking straight garbage to the listener.
    topo = world.topo
    raw = world.client_stack.connect(
        topo.server_addrs[1], 443, local_addr=topo.client_addrs[1]
    )
    raw.on_established = lambda: raw.send(b"\x16\x03\x01\xde\xad" * 40)

    report, _ = run_scenario(
        world, FaultPlan(name="counter-export"), PAYLOAD, slack=4.0
    )
    report.assert_ok()

    session_counts = world.server_session.stats
    server_counts = world.server.stats
    guard_trips = session_counts["guard_tripped"] + server_counts["guard_tripped"]
    rejected = session_counts["decode_rejected"] + server_counts["decode_rejected"]
    assert guard_trips >= 1
    assert rejected >= 1
    # And the session's metrics() export carries them too.
    exported = world.server_session.metrics()
    assert exported["stats"]["guard_tripped"] == session_counts["guard_tripped"] >= 1


class KeyShareRewriter:
    """On-path MITM that replaces the X25519 share of the first
    ClientHello it sees (plaintext, unauthenticated at that point) with
    a low-order point; TCP checksum fixed up, so the server's stack
    delivers it."""

    _ENTRY = b"\x00\x1d\x00\x20"  # group x25519, 32-byte key_exchange

    def __init__(self, share: bytes) -> None:
        self.share = share
        self.rewritten = 0

    def __call__(self, datagram):
        segment = _parse_tcp(datagram)
        if segment is None or self.rewritten:
            return datagram
        at = segment.payload.find(self._ENTRY)
        if at < 0:
            return datagram
        self.rewritten += 1
        start = at + len(self._ENTRY)
        segment.payload = (
            segment.payload[:start] + self.share + segment.payload[start + 32:]
        )
        return _reserialize(datagram, segment)


def test_low_order_key_share_kills_only_its_own_connection():
    """RFC 7748 6.1 in situ: a forged ClientHello whose key share is a
    low-order point makes the server abort *that* connection; the
    listener keeps serving and the event loop keeps running."""
    net, client_host, server_host, link = simple_duplex_network(delay=0.005, seed=3)
    rewriter = KeyShareRewriter((1).to_bytes(32, "little"))
    link.add_transformer(client_host.interfaces["eth0"], rewriter)
    ca = CertificateAuthority("Root", seed=b"low-order")
    trust = TrustStore()
    trust.add_authority(ca)
    accepted = []
    TcplsServer(
        TcplsContext(identity=ca.issue_identity("server.example", seed=b"srv"), seed=2),
        TcpStack(server_host, seed=3),
        on_session=accepted.append,
    )
    stack = TcpStack(client_host, seed=5)

    def dial(seed):
        session = TcplsSession(
            TcplsContext(trust_store=trust, server_name="server.example", seed=seed),
            stack,
        )
        session.connect("10.0.0.2")
        session.handshake()
        return session

    victim = dial(4)
    net.sim.run(until=1.0)
    bystander = dial(6)
    net.sim.run(until=2.0)

    assert rewriter.rewritten == 1
    assert not victim.handshake_complete
    assert bystander.handshake_complete
    assert [s.handshake_complete for s in accepted].count(True) == 1
