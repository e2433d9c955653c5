"""Backpressure composed with network faults: exactly-once, bounded memory.

The satellite scenario ISSUE 9 asks for: a slow reader holds the
receive window nearly shut while a loss burst hits the primary path and
a NAT rebind hits the secondary.  Retransmission, mid-stream failover,
and WINDOW_UPDATE credit all interleave; the invariants that must
survive are (a) every payload byte is delivered exactly once and in
order, and (b) the receiver's pinned memory stays proportional to the
configured window, never to the payload.
"""

from repro.faults import DeliveryRecorder, FaultPlan, TrackerAudit, check_invariants
from repro.faults.chaos import ChaosEngine

from tests.faults.conftest import establish_paths, fault_world

WINDOW = 8192
PAYLOAD_BYTES = 192 * 1024
MEMORY_BOUND = 8 * WINDOW  # window + reassembly slack, << payload


def _payload(size, seed=13):
    step = (seed % 251) + 1
    return bytes(((i * step + seed) & 0xFF) for i in range(size))


def test_slow_reader_survives_loss_burst_and_nat_rebind():
    world = fault_world(paths=2, seed=7, stream_recv_window=WINDOW)
    establish_paths(world)
    payload = _payload(PAYLOAD_BYTES)

    server = world.server_session
    recorder = DeliveryRecorder(server)
    audit = TrackerAudit(server.tracker)
    # Pull mode: the recorder keeps the FIN hook, but data parks in the
    # app-read queue until the slow drain below forwards it.
    server.on_stream_data = None

    stream = world.client.stream_new()
    world.client.streams_attach()
    # The sender queues the whole payload at once; the peer's credit,
    # not the sender, paces it onto the wire.
    world.client.send(stream, payload)
    world.client.stream_close(stream)

    # Slow reader: 4 KiB every 25 ms, forwarded into the recorder so the
    # invariant checker sees the exact app-visible delivery order.
    peak = {"memory": 0}

    def drain():
        peak["memory"] = max(peak["memory"], server.session_memory_bytes())
        data = server.recv_data(stream, 4096)
        if data:
            recorder._on_data(stream, data)
        server_stream = server.streams.get(stream)
        finished = (
            server_stream is not None
            and server_stream.remote_closed
            and not server_stream.read_buffer
        )
        if not finished and world.sim.now < 60.0:
            world.sim.schedule(0.025, drain)

    world.sim.schedule(0.025, drain)

    plan = (
        FaultPlan(name="backpressure-mix")
        .loss_burst(2.0, 1.5, loss=0.3, path=0)
        .nat_rebind(4.0, path=1)
    )
    engine = ChaosEngine(world.sim, world.topo.links)
    engine.apply(plan)

    world.run(until=60.0)

    # Receiver memory stayed ~window-sized through loss and failover.
    assert peak["memory"] <= MEMORY_BOUND
    # Exactly-once, in-order, tracker-clean delivery of every byte.
    report = check_invariants(
        {stream: payload},
        recorder,
        server,
        audit=audit,
        allow_terminal=False,
        slack=4.0,
    )
    report.assert_ok()
    # Both faults actually fired (the scenario tested what it claims).
    kinds_fired = {kind for _t, kind, _p, _phase in engine.log}
    assert {"loss_burst", "nat_rebind"} <= kinds_fired
