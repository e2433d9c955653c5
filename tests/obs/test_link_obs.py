"""Per-link queue-depth histograms and drop/outage trace events."""

from repro.netsim.engine import Simulator
from repro.netsim.link import Link
from repro.netsim.node import Host
from repro.netsim.packet import Datagram, parse_address
from repro.obs import Observability


def _world(**link_kwargs):
    sim = Simulator()
    a = Host(sim, "a")
    b = Host(sim, "b")
    ia = a.add_interface("eth0").configure_ipv4("10.0.0.1/24")
    ib = b.add_interface("eth0").configure_ipv4("10.0.0.2/24")
    link = Link(sim, **link_kwargs)
    ia.attach_link(link)
    ib.attach_link(link)
    a.add_route("10.0.0.0/24", ia)
    b.add_route("10.0.0.0/24", ib)
    b.register_protocol(253, lambda d, i: None)
    return sim, a, link


def _datagram(payload=b"x" * 100):
    return Datagram(
        parse_address("10.0.0.1"), parse_address("10.0.0.2"), 253, payload
    )


def test_observed_link_counts_in_stats_and_queue_depth_in_the_hub():
    sim, a, link = _world(name="v4", rate_bps=8e6, delay=0.001)
    obs = Observability(sim)
    link.observe(obs)
    for _ in range(3):
        a.send_ip(_datagram())
    sim.run_until_idle()
    assert link.stats["delivered"] == 3
    # The hub holds only what the link does not count itself.
    (component,) = obs.telemetry.snapshot().items()
    assert component[0] == "link.v4" and list(component[1]) == ["queue_depth"]
    assert component[1]["queue_depth"]["count"] == 3


def test_queue_drops_become_trace_points():
    # Queue of 1 packet on a slow link: back-to-back sends overflow it.
    sim, a, link = _world(rate_bps=8e4, delay=0.001, queue_packets=1)
    obs = Observability(sim)
    link.observe(obs)
    for _ in range(5):
        a.send_ip(_datagram())
    sim.run_until_idle()
    assert link.stats["dropped_queue"] > 0
    drops = obs.tracer.events_named("dropped_queue")
    assert len(drops) == link.stats["dropped_queue"]
    assert all(record["component"] == "link" for record in drops)
    assert all(record["size"] == 120 for record in drops)  # 100B + 20B header


def test_outage_transitions_are_traced():
    sim, a, link = _world(rate_bps=8e6, delay=0.001)
    obs = Observability(sim)
    link.observe(obs)
    sim.schedule(0.5, link.set_down)
    sim.schedule(0.6, lambda: a.send_ip(_datagram()))
    sim.schedule(1.0, link.set_up)
    sim.run_until_idle()
    (down,) = obs.tracer.events_named("link_down")
    (up,) = obs.tracer.events_named("link_up")
    assert down["t"] == 0.5
    assert up["t"] == 1.0
    assert obs.tracer.events_named("dropped_down")
    assert link.stats["dropped_down"] == 1


def test_unobserved_link_behaves_identically():
    def run(observed):
        sim, a, link = _world(rate_bps=8e4, delay=0.001, queue_packets=1)
        if observed:
            link.observe(Observability(sim))
        for _ in range(5):
            a.send_ip(_datagram())
        sim.run_until_idle()
        return link.stats, sim.events_processed, sim.now

    assert run(observed=False) == run(observed=True)
