"""Cross-checks for the ``netsim.vectorq`` vectorized link-queue path.

The scalar per-packet path is the specification; the batch path must be
bit-identical — same accept/drop decisions, same chained service times,
same delivery instants, same wire bytes.  These tests compare the two
at the link level (explicit bursts into identical worlds) and end to
end (a full TCPLS transfer's pcap digest with the flag on vs off, the
same oracle standard the timer wheel used).
"""

import pytest

from repro import fastpath
from repro.analysis.sanitizers import (
    DeterminismProbe,
    builtin_smoke_scenario,
    reset_process_globals,
)
from repro.netsim.link import Link
from repro.netsim.packet import Datagram, parse_address
from repro.netsim.scenarios import simple_duplex_network


def _world(**kwargs):
    reset_process_globals()
    net, client, server, link = simple_duplex_network(**kwargs)
    arrivals = []
    server.register_protocol(
        253, lambda d, i: arrivals.append((net.sim.now, d.packet_id, bytes(d.payload)))
    )
    return net, client.interfaces["eth0"], link, arrivals


def _burst(count, size=500):
    src = parse_address("10.0.0.1")
    dst = parse_address("10.0.0.2")
    return [
        Datagram(src=src, dst=dst, protocol=253, payload=bytes([i % 256]) * size)
        for i in range(count)
    ]


def _compare_worlds(send_scalar, send_batch, **world_kwargs):
    """Run the same burst through both paths in twin worlds and demand
    identical arrivals, stats, and transmitter state."""
    net_a, iface_a, link_a, arrivals_a = _world(**world_kwargs)
    send_scalar(iface_a, _burst_for(iface_a))
    net_a.sim.run()

    net_b, iface_b, link_b, arrivals_b = _world(**world_kwargs)
    send_batch(iface_b, _burst_for(iface_b))
    net_b.sim.run()

    assert arrivals_b == arrivals_a
    assert link_b.stats == link_a.stats
    assert (
        link_b._directions[0].next_free_time
        == link_a._directions[0].next_free_time
    )
    return arrivals_a


_BURST_SIZE = 8


def _burst_for(_iface):
    return _burst(_BURST_SIZE)


def _scalar_send(iface, burst):
    for datagram in burst:
        iface.send(datagram)


def _batch_send(iface, burst):
    iface.send_batch(burst)


def test_batch_matches_scalar_service_chain():
    arrivals = _compare_worlds(_scalar_send, _batch_send)
    assert len(arrivals) == _BURST_SIZE
    times = [t for t, _, _ in arrivals]
    assert times == sorted(times)


def test_batch_matches_scalar_on_queue_overflow():
    _compare_worlds(_scalar_send, _batch_send, queue_packets=5)


def test_batch_matches_scalar_with_dropping_transformer():
    def install_dropper(link):
        state = {"n": 0}

        def dropper(datagram):
            state["n"] += 1
            return None if state["n"] % 3 == 0 else datagram

        link.add_transformer(link.endpoint(0), dropper)

    def scalar(iface, burst):
        install_dropper(iface.link)
        _scalar_send(iface, burst)

    def batch(iface, burst):
        install_dropper(iface.link)
        _batch_send(iface, burst)

    _compare_worlds(scalar, batch)


def test_batch_matches_scalar_with_injecting_transformer():
    def install_injector(link):
        def injector(datagram):
            if datagram.payload[:1] == b"\x02":
                return [datagram, datagram.copy()]
            return datagram

        link.add_transformer(link.endpoint(0), injector)

    def scalar(iface, burst):
        install_injector(iface.link)
        _scalar_send(iface, burst)

    def batch(iface, burst):
        install_injector(iface.link)
        _batch_send(iface, burst)

    arrivals = _compare_worlds(scalar, batch)
    assert len(arrivals) == _BURST_SIZE + 1


def test_batch_matches_scalar_on_down_direction():
    def scalar(iface, burst):
        iface.link.set_down(direction=0)
        _scalar_send(iface, burst)

    def batch(iface, burst):
        iface.link.set_down(direction=0)
        _batch_send(iface, burst)

    arrivals = _compare_worlds(scalar, batch)
    assert arrivals == []


def test_lossy_direction_falls_back_to_scalar_rng_order():
    """With loss (or reorder) configured the batch call must preserve
    the per-packet RNG draw order — it does so by taking the scalar
    path, so stats and arrivals match exactly."""
    _compare_worlds(_scalar_send, _batch_send, loss_rate=0.25, seed=99)


def test_single_datagram_batch_is_plain_transmit():
    net, iface, link, arrivals = _world()
    iface.send_batch(_burst(1))
    net.sim.run()
    assert len(arrivals) == 1
    assert link.stats["delivered"] == 1


def _smoke_digest(vectorq_enabled):
    reset_process_globals()
    probe = DeterminismProbe()
    with fastpath.overridden("netsim.vectorq", vectorq_enabled):
        builtin_smoke_scenario(probe)
    return probe.digest()


def test_end_to_end_pcap_digest_identical_with_flag_on_and_off():
    engaged = {"batches": 0}
    original = Link._enqueue_batch

    def spy(self, index, datagrams):
        engaged["batches"] += 1
        return original(self, index, datagrams)

    Link._enqueue_batch = spy
    try:
        vector = _smoke_digest(True)
    finally:
        Link._enqueue_batch = original
    scalar = _smoke_digest(False)
    # The whole point: identical wire bytes and timing...
    assert vector.pcap_hash == scalar.pcap_hash
    assert vector.clock == scalar.clock
    assert vector.packets == scalar.packets
    # ...and the vectorized path actually carried traffic.
    assert engaged["batches"] > 0


def test_flag_is_registered_with_a_crosscheck():
    assert "netsim.vectorq" in fastpath.FEATURES


def test_batch_rejects_foreign_interface():
    net, iface, link, _ = _world()
    other_net, other_iface, _, _ = _world()
    with pytest.raises(ValueError):
        link.transmit_batch(other_iface, _burst(2))
