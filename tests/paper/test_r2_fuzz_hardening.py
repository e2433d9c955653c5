"""R2 — wire hardening: a keyless attacker against a live transfer.

An attacked two-path transfer (ciphertext tampering plus a
garbage-spraying raw connection) must finish byte-exact and
exactly-once while the hardening counts — ``decode_rejected`` and
``guard_tripped`` in the session's and the listener's ``stats`` — land
nonzero.  The
unit-level parser campaign is ``tests/fuzz/test_campaign.py``.
"""

from repro.core.session import TcplsContext, TcplsServer, TcplsSession
from repro.faults import DeliveryRecorder, TrackerAudit, check_invariants
from repro.netsim.middlebox import PayloadTamperer
from repro.netsim.scenarios import multi_path_network
from repro.tcp.stack import TcpStack
from repro.tls.certificates import CertificateAuthority, TrustStore

from tests.helpers import report

PAYLOAD = bytes(range(256)) * 4000  # ~1 MB, two 5 Mbps paths


def _world(seed=5):
    ca = CertificateAuthority("Bench Root", seed=b"r2")
    identity = ca.issue_identity("server.example", seed=b"r2srv")
    trust = TrustStore()
    trust.add_authority(ca)
    topo = multi_path_network(paths=2, rate_bps=5e6, seed=seed)
    sessions = []
    listener = TcplsServer(
        TcplsContext(identity=identity, seed=seed + 500),
        TcpStack(topo.server, seed=seed + 1000),
        on_session=sessions.append,
    )
    client_stack = TcpStack(topo.client, seed=seed)
    client = TcplsSession(
        TcplsContext(trust_store=trust, server_name="server.example", seed=seed),
        client_stack,
    )
    client.connect(topo.server_addrs[0], src=topo.client_addrs[0])
    client.handshake()
    topo.net.sim.run(until=1.0)
    assert client.handshake_complete
    conn = client.connect(topo.server_addrs[1], src=topo.client_addrs[1])
    client.handshake(conn_id=conn)
    topo.net.sim.run(until=2.0)
    return topo, client_stack, client, listener, sessions[0]


def _attacked_transfer(seed=5):
    topo, client_stack, client, listener, server = _world(seed=seed)
    sim = topo.net.sim
    topo.links[0].add_transformer(
        topo.client.interfaces["eth0"],
        PayloadTamperer(count=2, start_after=4, seed=5),
    )
    # A keyless peer spraying garbage straight at the listener.
    raw = client_stack.connect(
        topo.server_addrs[1], 443, local_addr=topo.client_addrs[1]
    )
    raw.on_established = lambda: raw.send(b"\x16\x03\x01\xde\xad" * 40)
    recorder = DeliveryRecorder(server)
    audit = TrackerAudit(server.tracker)
    stream = client.stream_new()
    client.streams_attach()
    client.send(stream, PAYLOAD)
    sim.run(until=90.0)
    check_invariants(
        {stream: PAYLOAD}, recorder, server,
        audit=audit, slack=4.0,
    ).assert_ok()
    row = {
        "guard_tripped": server.stats["guard_tripped"]
        + listener.stats["guard_tripped"],
        "decode_rejected": server.stats["decode_rejected"]
        + listener.stats["decode_rejected"],
        "replayed": client.stats["frames_replayed"],
        "duplicates_absorbed": server.tracker.duplicates,
    }
    return row


def test_r2_fuzz_and_attack_accounting():
    attack = _attacked_transfer()

    report(
        "R2 — wire hardening: keyless attacker",
        [
            "attacked transfer (1 MB, 2 paths, tamperer + garbage conn):",
            f"  guard_tripped={attack['guard_tripped']} "
            f"decode_rejected={attack['decode_rejected']} "
            f"replayed={attack['replayed']} "
            f"dups absorbed={attack['duplicates_absorbed']}",
            "delivery: byte-exact, exactly-once (invariants.assert_ok).",
        ],
    )
    assert attack["guard_tripped"] >= 1
    assert attack["decode_rejected"] >= 1
