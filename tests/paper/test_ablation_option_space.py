"""A3 — More space for TCP options (section 3.1).

"The TCP specification limits the size of the entire TCP header
(including options) to 64 bytes" — 40 bytes of option space.  TCPLS
moves options into TLS records: negotiated during the handshake (the
TLS messages are in the TCP payload) or carried in records afterwards,
with a 16 KB budget per record, protected from middleboxes.

The test quantifies both budgets for real (the TCP encoder enforces
its 40-byte ceiling; a TCPLS record carries a maximal option), and runs
the paper's working example end to end: the client sets the server's
TCP User Timeout through the secure channel.
"""

import pytest

from repro.core import framing
from repro.core.events import Event
from repro.core.session import TcplsContext, TcplsServer, TcplsSession
from repro.netsim.scenarios import simple_duplex_network
from repro.tcp.options import (
    MAX_OPTION_SPACE,
    SackBlocks,
    Timestamps,
    UserTimeout,
    encode_options,
)
from repro.tcp.stack import TcpStack
from repro.tls.certificates import CertificateAuthority, TrustStore
from repro.tls.record import MAX_PLAINTEXT
from repro.utils.errors import ProtocolViolation

from tests.helpers import report


def test_a3_option_space_budgets():
    # --- the TCP header ceiling, enforced for real -------------------------
    # Timestamps (10B) + SACK-permitted etc. leave room for at most 3 SACK
    # blocks; a 4th doesn't fit the 40-byte budget alongside timestamps.
    fits = encode_options(
        [Timestamps(), SackBlocks(blocks=((1, 2), (3, 4), (5, 6)))]
    )
    assert len(fits) <= MAX_OPTION_SPACE
    with pytest.raises(ProtocolViolation):
        encode_options(
            [Timestamps(), SackBlocks(blocks=((1, 2), (3, 4), (5, 6), (7, 8)))]
        )

    # --- the TCPLS record budget -------------------------------------------
    big_option_body = b"\x5a" * 8000  # e.g. a huge SACK-equivalent map
    frame = framing.encode_tcp_option(253, big_option_body, apply_to_conn=0)
    assert len(frame) < MAX_PLAINTEXT
    kind, conn, body = framing.decode_tcp_option(frame)
    assert body == big_option_body

    sack_blocks_tcp = (MAX_OPTION_SPACE - 10 - 2) // 8  # beside timestamps
    sack_blocks_tcpls = (MAX_PLAINTEXT - 64) // 8
    report(
        "A3 — TCP option space: header vs secure channel",
        [
            f"TCP header option budget : {MAX_OPTION_SPACE} bytes "
            f"(~{sack_blocks_tcp} SACK blocks beside timestamps)",
            f"TCPLS record budget      : {MAX_PLAINTEXT} bytes per record "
            f"(~{sack_blocks_tcpls} SACK blocks), unlimited records",
            f"expansion factor         : {MAX_PLAINTEXT // MAX_OPTION_SPACE}x "
            "per record, middlebox-proof",
        ],
    )


def test_a3_user_timeout_applied_end_to_end():
    """The section 3.1 working example: UTO over the secure channel."""

    net, client_host, server_host, link = simple_duplex_network(delay=0.01)
    ca = CertificateAuthority("Bench Root", seed=b"a3")
    identity = ca.issue_identity("server.example", seed=b"a3srv")
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
    client.connect("10.0.0.2")
    client.handshake()
    net.sim.run(until=1.0)
    options_seen = []
    sessions[0].on(
        Event.TCP_OPTION_RECEIVED, lambda **kw: options_seen.append(kw)
    )
    client.send_tcp_option(UserTimeout(granularity_minutes=False, timeout=42))
    net.sim.run(until=2.0)
    server = sessions[0]
    applied = server.connections[0].tcp.user_timeout
    report(
        "A3b — TCP User Timeout via the secure channel",
        [
            f"option received by server: kind={options_seen[0]['kind']} "
            f"value={options_seen[0]['option'].timeout}s",
            f"applied to the server's TCP connection (setsockopt): {applied}s",
        ],
    )
    assert applied == 42.0
