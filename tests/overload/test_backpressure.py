"""End-to-end stream flow control: credit, stalls, bounded memory.

Backpressure propagates through every layer: a reader that stops
reading stalls the peer's sender at roughly one receive window of
in-flight data, with the excess parked at the *sender* (where the
session memory budget meters it), never at the receiver.
"""

from repro.core.session import TcplsConnection
from repro.core.streams import DEFAULT_STREAM_WINDOW

from tests.core.conftest import collect_stream_data, establish
from tests.overload.conftest import make_world

WINDOW = 8192


def _payload(size, seed=3):
    step = (seed % 251) + 1
    return bytes(((i * step + seed) & 0xFF) for i in range(size))


def test_slow_reader_memory_bounded_by_window():
    """Fails-on-old-code: before per-stream credit, a non-reading server
    buffered the whole transfer (memory ~ payload); with flow control it
    pins at most a small multiple of the configured window."""
    world = make_world(stream_recv_window=WINDOW)
    establish(world)
    payload = _payload(256 * 1024)

    stream = world.client.stream_new()
    world.client.streams_attach()
    world.client.send(stream, payload)
    world.client.stream_close(stream)
    world.run(until=6.0)

    server = world.server_session
    # The server never read: it holds around one window, not the payload.
    assert server.session_memory_bytes() <= 4 * WINDOW
    # The rest is still queued at the sender, where it is accountable.
    client_stream = world.client.streams[stream]
    assert len(client_stream.send_buffer) >= len(payload) - 4 * WINDOW
    assert client_stream.stalled

    # Now the application drains; credit flows back and the transfer
    # completes byte-for-byte.
    received = bytearray()
    for _ in range(600):
        received.extend(server.recv_data(stream))
        if len(received) >= len(payload):
            break
        world.run(until=world.sim.now + 0.05)
    assert bytes(received) == payload
    # Memory at the receiver stayed bounded throughout and is now empty.
    assert server.session_memory_bytes() <= 4 * WINDOW


def test_push_mode_completes_through_tiny_window():
    """With a delivery callback (delivery == consumption) the credit
    loop is invisible to the application: a 64 KiB transfer completes
    through a 4 KiB window purely on WINDOW_UPDATE grants."""
    world = make_world(stream_recv_window=4096)
    establish(world)
    received, fins = collect_stream_data(world.server_session)
    payload = _payload(64 * 1024, seed=9)

    stream = world.client.stream_new()
    world.client.streams_attach()
    world.client.send(stream, payload)
    world.client.stream_close(stream)
    world.run(until=8.0)

    assert bytes(received[stream]) == payload
    assert stream in fins
    assert world.server_session.session_memory_bytes() == 0
    # Grants were actually needed: far more data moved than one window.
    assert len(payload) > 4 * 4096


def test_send_room_clamps_at_zero():
    """Regression: queued bytes can exceed the window after a cwnd
    collapse; send_room() must clamp instead of going negative and
    skewing the scheduler's capacity comparisons."""

    class _FakeTcp:
        snd_wnd = 8000

        class cc:
            @staticmethod
            def window():
                return 10000

        @staticmethod
        def bytes_in_flight():
            return 6000

        @staticmethod
        def send_queue_length():
            return 5000

    class _FakeConn:
        tcp = _FakeTcp()
        send_room = TcplsConnection.send_room

    # min(10000, 8000) - 6000 - 5000 = -3000 before the clamp.
    assert _FakeConn().send_room() == 0


def test_send_room_positive_case():
    class _FakeTcp:
        snd_wnd = 64000

        class cc:
            @staticmethod
            def window():
                return 10000

        @staticmethod
        def bytes_in_flight():
            return 2000

        @staticmethod
        def send_queue_length():
            return 1000

    class _FakeConn:
        tcp = _FakeTcp()
        send_room = TcplsConnection.send_room

    assert _FakeConn().send_room() == 7000


def test_unconfigured_contexts_keep_legacy_unbounded_send():
    """An unconfigured context grants the protocol-default window."""
    world = make_world()
    establish(world)
    stream = world.client.stream_new()
    world.client.streams_attach()
    world.client.send(stream, b"x" * (128 * 1024))
    assert world.client.streams[stream].send_limit == DEFAULT_STREAM_WINDOW


def test_zero_credit_blocks_sender_not_stream_state():
    """At exactly zero credit the stream reports stalled but stays
    writable at the API level: the bytes queue at the sender."""
    world = make_world(stream_recv_window=4096)
    establish(world)
    stream = world.client.stream_new()
    world.client.streams_attach()
    world.client.send(stream, _payload(32 * 1024, seed=11))
    world.run(until=3.0)
    client_stream = world.client.streams[stream]
    assert client_stream.send_offset == client_stream.send_limit
    assert client_stream.stalled
    # Receiver holds exactly what the credit permitted, nothing more.
    server_stream = world.server_session.streams[stream]
    assert server_stream.app_buffered() <= 4096
