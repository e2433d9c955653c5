"""A8 — Per-stream cryptographic contexts and trial decryption (2.3).

"Each stream has its own cryptographic context [...] we leverage the
AEAD cipher to find the stream: check the authentication tag of the
incoming record until we find the stream that properly verifies the
tag.  This operation is lightweight."  And: "each failed decryption is
considered a forgery attempt."

The test runs N streams over one and over two TCP connections,
reports trial-decryption statistics, and verifies forgery accounting.
The period sweep maps ROADMAP (18) over steady on-path corruption, on
the only path and on one or both of two paths.
"""

import pytest

from repro.core.events import Event
from repro.core.session import TcplsContext, TcplsServer, TcplsSession
from repro.faults.invariants import recovery_spans
from repro.netsim.middlebox import PayloadCorruptor
from repro.netsim.scenarios import dual_path_network
from repro.obs import Observability
from repro.tcp.stack import TcpStack
from repro.tls.certificates import CertificateAuthority, TrustStore

from tests.helpers import report

N_STREAMS = 6
PER_STREAM = 100_000
#: A8b's corruption period: every 40th client-to-server packet.
A8B_EVERY = 40


def _run(n_conns: int, corrupt_every: int = 0, corrupt_v6: bool = False):
    topo = dual_path_network(rate_bps=30e6)
    if corrupt_every:
        topo.v4_links[0].add_transformer(
            topo.client.interfaces["eth0"], PayloadCorruptor(every=corrupt_every)
        )
    if corrupt_v6:
        topo.v6_links[0].add_transformer(
            topo.client.interfaces["eth1"], PayloadCorruptor(every=corrupt_every)
        )
    ca = CertificateAuthority("Bench Root", seed=b"a8")
    identity = ca.issue_identity("server.example", seed=b"a8srv")
    trust = TrustStore()
    trust.add_authority(ca)
    # Nothing below reads the hub, and a disabled one changes no result;
    # it spares the livelocked period its TCP_INFO samples, one of each
    # live connection and of the failing one at every failure (2,785 at
    # k = 25).
    hub = Observability(topo.sim, enabled=False)
    sessions = []
    TcplsServer(
        TcplsContext(identity=identity, seed=2, observability=hub),
        TcpStack(topo.server, seed=3),
        on_session=sessions.append,
    )
    client = TcplsSession(
        TcplsContext(
            trust_store=trust, server_name="server.example", seed=4,
            observability=hub,
        ),
        TcpStack(topo.client, seed=5),
    )
    client.connect(topo.server_v4)
    client.handshake()
    topo.sim.run(until=1.0)
    conn_ids = [0]
    if n_conns == 2:
        v6 = client.connect(topo.server_v6, src=topo.client_v6)
        client.handshake(conn_id=v6)
        topo.sim.run(until=1.5)
        conn_ids.append(v6)

    received = {}
    sessions[0].on_stream_data = lambda sid, d: received.setdefault(
        sid, bytearray()
    ).extend(d)
    streams = [
        client.stream_new(conn_id=conn_ids[i % len(conn_ids)])
        for i in range(N_STREAMS)
    ]
    client.streams_attach()
    for index, stream in enumerate(streams):
        client.send(stream, bytes([index]) * PER_STREAM)
    topo.sim.run(until=60.0)
    ok = all(
        bytes(received.get(stream, b"")) == bytes([index]) * PER_STREAM
        for index, stream in enumerate(streams)
    )
    server = sessions[0]
    return {
        "ok": ok,
        "delivered": sum(len(received.get(stream, b"")) for stream in streams),
        # faults/invariants.py's contract: deliver every byte, or give
        # the session up with a terminal SESSION_DEGRADED.
        "terminal": bool(recovery_spans(client)["terminal"]),
        "conn_failures": len(client.events.events_named(Event.CONN_FAILED)),
        "records": server.stats["records_received"],
        "trials": server.contexts.trial_decryptions,
        "forgeries": server.contexts.forgery_suspects,
        "trials_per_record": server.contexts.trial_decryptions
        / max(server.stats["records_received"], 1),
    }


def test_a8_streams_over_one_and_two_connections():
    one = _run(n_conns=1)
    two = _run(n_conns=2)
    report(
        f"A8 — {N_STREAMS} streams with per-stream crypto contexts",
        [
            f"{'':<18}{'records':>9}{'tag trials':>12}{'trials/rec':>12}"
            f"{'forgeries':>11}",
            f"{'1 TCP connection':<18}{one['records']:>9}{one['trials']:>12}"
            f"{one['trials_per_record']:>12.2f}{one['forgeries']:>11}",
            f"{'2 TCP connections':<18}{two['records']:>9}{two['trials']:>12}"
            f"{two['trials_per_record']:>12.2f}{two['forgeries']:>11}",
        ],
    )
    assert one["ok"] and two["ok"]
    assert one["forgeries"] == 0 and two["forgeries"] == 0
    # Trial decryption is bounded by the context count per connection
    # (control + streams), and splitting streams over two connections
    # halves each connection's candidate set.
    assert one["trials_per_record"] <= N_STREAMS + 1
    assert two["trials_per_record"] <= N_STREAMS / 2 + 1.5


def test_a8_forgery_accounting():
    """Tampered records are counted as forgery attempts (section 2.3)."""
    result = _run(1, corrupt_every=A8B_EVERY)
    report(
        "A8b — tampering shows up as forgery suspects",
        [f"forgery suspects counted: {result['forgeries']}"],
    )
    assert result["forgeries"] > 0


@pytest.mark.xfail(
    strict=True,
    reason="known liveness defect: the replay re-seals frames 46-48 under "
    "(stream 11, conn) contexts; a corrupted packet makes 47 fail to open and "
    "48 then fails on the desynchronized nonce; the next ACK record opens "
    "under the control context and resets auth_failure_run at 2, below "
    "AUTH_FAILURE_TOLERANCE (3), so the connection is never failed and nothing "
    "replays again: stream 11 stops at 80,000 of 100,000 bytes",
)
def test_a8b_tampered_transfer_delivers_every_byte():
    """The tampered A8b transfer should still deliver all six streams."""
    assert _run(1, corrupt_every=A8B_EVERY)["ok"]


#: Bytes of 600,000 each corruption period delivered by t = 60 s,
#: measured at 083ede5 (None: every byte arrived).  None of the failing
#: periods surfaced a terminal SESSION_DEGRADED.
PERIOD_DELIVERED = {
    25: 80_000,
    30: 580_000,
    35: 580_000,
    40: 580_000,
    45: 580_000,
    50: 596_000,
    60: None,
    80: 580_000,
    120: None,
    200: None,
}


def _period(every, delivered):
    if delivered is None:
        return every
    stall = "livelock" if every == 25 else "silent stall"
    return pytest.param(every, marks=pytest.mark.xfail(
        strict=True,
        reason=f"ROADMAP (18), {stall}: {delivered:,} of 600,000 bytes by "
        "t = 60 s and no terminal SESSION_DEGRADED",
    ))


@pytest.mark.parametrize(
    "every", [_period(k, bytes_) for k, bytes_ in PERIOD_DELIVERED.items()]
)
def test_a8b_corruption_period_keeps_the_delivery_contract(every):
    """Steady corruption of period k on the only path: the session
    delivers every byte or surfaces a terminal SESSION_DEGRADED."""
    result = _run(1, corrupt_every=every)
    report(
        f"A8b sweep — corrupt every {every}th packet",
        [f"delivered {result['delivered']:,} of {N_STREAMS * PER_STREAM:,} bytes, "
         f"{result['conn_failures']} connection failures, "
         f"terminal={result['terminal']}"],
    )
    assert result["ok"] or result["terminal"], result


@pytest.mark.parametrize("corrupt_v6", [False, True], ids=["v4", "v4+v6"])
@pytest.mark.parametrize("every", list(PERIOD_DELIVERED))
def test_a8b_two_path_corruption_period_keeps_the_delivery_contract(
    every, corrupt_v6
):
    """The same periods with a second path: v4 alone corrupted, or both.
    Every run delivers every byte, so (18)'s stall needs a session with
    one path; these runs guard the two-path escape for its fix."""
    result = _run(2, corrupt_every=every, corrupt_v6=corrupt_v6)
    report(
        f"A8b two-path sweep — corrupt every {every}th packet on "
        f"{'both paths' if corrupt_v6 else 'v4'}",
        [f"delivered {result['delivered']:,} of {N_STREAMS * PER_STREAM:,} bytes, "
         f"{result['conn_failures']} connection failures"],
    )
    assert result["ok"], result
