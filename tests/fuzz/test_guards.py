"""Resource-exhaustion guards: caps trip, fail closed, and are counted.

Every guard is driven at the threshold that ships, not at a toy value:
the constants below are the ones a deployed session enforces.
"""

import random
import types

import pytest

from repro.core import framing
from repro.core.frames import MAX_REASSEMBLY_BYTES, MAX_STREAMS, on_stream_data
from repro.core.framing import TType
from repro.core.join import build_join_client_hello
from repro.core.server import JOIN_RATE_LIMIT, JOIN_RATE_WINDOW
from repro.core.session import MAX_PLAINTEXT_RECORDS
from repro.core.streams import DEFAULT_STREAM_WINDOW
from repro.faults.invariants import recovery_spans
from repro.tls.alerts import TlsAlertError
from repro.tls.certificates import CertificateAuthority, TrustStore
from repro.tls.record import ContentType
from repro.utils.errors import GuardLimitExceeded

from tests.core.conftest import World, collect_stream_data, establish
from tests.tls.tls_pipe import make_pair

from repro.netsim.scenarios import simple_duplex_network


def _world():
    net, client_host, server_host, link = simple_duplex_network(delay=0.01)
    world = World(net, client_host, server_host)
    world.link = link
    return world


def _tls_pair():
    ca = CertificateAuthority("Guard Root", seed=b"guard")
    identity = ca.issue_identity("server.example", seed=b"gsrv")
    trust = TrustStore()
    trust.add_authority(ca)
    return make_pair(identity, trust)


# -- TLS handshake transcript guards ---------------------------------------


def test_oversized_handshake_declaration_is_fatal_alert():
    pipe = _tls_pair()
    pipe.client.start_handshake()
    pipe.pump()
    assert pipe.server.is_established
    rejections = []
    pipe.server.on_decode_rejected = rejections.append
    # A handshake message claiming 16 MB: rejected before buffering.
    with pytest.raises(TlsAlertError):
        pipe.server.process_handshake_bytes(b"\x01\xff\xff\xff")
    assert pipe.server.decode_rejected == 1
    assert rejections and "claims" in rejections[0]


def test_handshake_buffer_guard_trips():
    pipe = _tls_pair()
    pipe.client.start_handshake()
    pipe.pump()
    pipe.server.max_handshake_buffer = 1024
    trips = []
    pipe.server.on_guard_tripped = trips.append
    # An incomplete message that keeps the reassembly buffer growing
    # past the cap without ever completing.
    with pytest.raises(TlsAlertError):
        pipe.server.process_handshake_bytes(
            b"\x01\x00\xff\xff" + b"\x00" * 2000
        )
    assert pipe.server.guard_tripped == 1
    assert trips


# -- session-level guards ---------------------------------------------------


def test_max_streams_guard_trips_and_is_counted():
    world = _world()
    establish(world)
    collect_stream_data(world.server_session)
    # One stream more than the table holds, all opened by the peer.
    streams = [world.client.stream_new() for _ in range(MAX_STREAMS + 1)]
    world.client.streams_attach()
    for index, stream in enumerate(streams):
        world.client.send(stream, bytes([index]) * 64)
    world.run(until=3.0)
    server = world.server_session
    # The implicit-stream guard refused the table overflow and the
    # violation was counted (the connection it arrived on was torn down).
    assert len(server.streams) == MAX_STREAMS
    assert server.stats["guard_tripped"] >= 1


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP (22): ensure_stream counts closed streams against "
    "MAX_STREAMS, so the 65th stream's STREAM_OPEN trips the guard and the "
    "connection fails; its seq was already accepted, so the replay after the "
    "JOIN is dropped as a duplicate, the request fails trial decryption "
    "under a context the server never installed, and the client keeps 2 "
    "frames unacked behind a SESSION_RECOVERED",
)
def test_closed_streams_do_not_count_against_the_stream_table():
    """One request per stream (128 B -> 64 B), both ends closing each
    stream: past MAX_STREAMS of them, every response still arrives, or
    the session says it gave up (a terminal SESSION_DEGRADED)."""
    world = _world()
    establish(world)
    client, server = world.client, world.server_session
    requests, responses = {}, {}

    def next_request():
        stream = client.stream_new()
        client.streams_attach()
        client.send(stream, b"q" * 128)
        client.stream_close(stream)

    def on_request(stream_id, data):
        request = requests.setdefault(stream_id, bytearray())
        request.extend(data)
        if len(request) == 128:
            server.send(stream_id, b"r" * 64)
            server.stream_close(stream_id)

    def on_response(stream_id, data):
        response = responses.setdefault(stream_id, bytearray())
        response.extend(data)
        if len(response) == 64 and len(responses) <= MAX_STREAMS:
            next_request()

    server.on_stream_data = on_request
    client.on_stream_data = on_response
    next_request()
    world.run(until=30.0)
    answered = sum(len(response) == 64 for response in responses.values())
    assert answered == MAX_STREAMS + 1 or recovery_spans(client)["terminal"]


def test_reassembly_cap_guard():
    world = _world()
    establish(world)
    server = world.server_session
    conn = server.primary
    # A flood of 64 KiB segments behind a hole at offset 0, each half
    # overlapping the last: every one buffers in full, yet the highest
    # offset stays far inside the flow-control window.  The frame that
    # would take the out-of-order buffer past the cap is refused.
    size, step = 64 << 10, 32 << 10
    frames = MAX_REASSEMBLY_BYTES // size
    frame = lambda index: framing.Frame(
        ttype=TType.STREAM_DATA,
        seq=index + 1,
        body=framing.encode_stream_data(2, 1 + index * step, b"\x55" * size),
    )
    assert 1 + frames * step + size < DEFAULT_STREAM_WINDOW
    for index in range(frames):
        on_stream_data(server, conn, frame(index))
    assert server.streams[2].reassembly_bytes() == MAX_REASSEMBLY_BYTES
    with pytest.raises(GuardLimitExceeded, match="reassembly buffer"):
        on_stream_data(server, conn, frame(frames))


def test_plaintext_junk_cap_guard():
    world = _world()
    establish(world)
    server = world.server_session
    conn = server.primary
    for _ in range(MAX_PLAINTEXT_RECORDS):
        server._on_raw_record(conn, ContentType.HANDSHAKE, b"\xde\xad")
    with pytest.raises(GuardLimitExceeded):
        server._on_raw_record(conn, ContentType.HANDSHAKE, b"\xde\xad")


def test_plaintext_junk_flood_fails_connection_not_process():
    """End to end: a flood of plaintext records through the TCP stream
    tears the connection down (counted), never crashes the simulator."""
    world = _world()
    establish(world)
    server = world.server_session
    conn = server.primary
    junk = (b"\x16\x03\x03\x00\x04\xde\xad\xbe\xef") * (MAX_PLAINTEXT_RECORDS + 1)
    server._on_tcp_data(conn, junk)
    assert server.stats["guard_tripped"] >= 1
    assert conn.state == "FAILED"


def test_join_rate_limit_sliding_window():
    world = _world()
    peer = types.SimpleNamespace(remote_addr="10.9.9.9")
    server = world.server
    assert all(server._join_allowed(peer) for _ in range(JOIN_RATE_LIMIT))
    assert not server._join_allowed(peer)
    # Another peer has its own budget.
    other = types.SimpleNamespace(remote_addr="10.9.9.8")
    assert server._join_allowed(other)
    # The window slides: after it passes, the peer may JOIN again.
    world.sim.schedule(1.5 * JOIN_RATE_WINDOW, lambda: None)
    world.run(until=2 * JOIN_RATE_WINDOW)
    assert server._join_allowed(peer)
    # Routed through the listener, the JOIN past the budget is refused
    # and counted as a guard trip; the ones within it name no session.
    hello = build_join_client_hello(b"\x01" * 8, b"\x02" * 16, random.Random(1))
    aborts = []
    flooder = types.SimpleNamespace(remote_addr="10.9.9.7", abort=aborts.append)
    for _ in range(JOIN_RATE_LIMIT + 1):
        server._route(flooder, ContentType.HANDSHAKE, hello, hello)
    assert aborts[-1] == "JOIN rate limit"
    assert server.stats == {"decode_rejected": JOIN_RATE_LIMIT, "guard_tripped": 1}


def test_guard_knobs_have_safe_defaults():
    assert MAX_STREAMS >= 16
    assert MAX_REASSEMBLY_BYTES >= 1 << 20
    assert MAX_PLAINTEXT_RECORDS >= 8
    assert JOIN_RATE_LIMIT >= 4
