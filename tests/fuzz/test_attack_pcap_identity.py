"""Hardening telemetry must not perturb the simulation.

The rejection counters and guard instrumentation sit on hot decode
paths; this replays an *attacked* two-path transfer with an enabled and
a disabled observability hub and demands bit-identical behaviour — same
event count, same finishing clock, same session events, byte-identical
pcap — while both runs prove the attack really engaged (the same nonzero
``stats["guard_tripped"]``).
"""

from repro.faults import FaultPlan
from repro.netsim.middlebox import PayloadTamperer
from repro.netsim.pcap import PcapWriter
from repro.netsim.scenarios import multi_path_network
from repro.obs import Observability

from tests.core.conftest import World
from tests.faults.conftest import establish_paths, run_scenario

PAYLOAD = bytes(range(256)) * 1024  # 256 KiB


def _attacked_run(observed, pcap_path):
    # Rewind the two process-global counters that leak across runs (IP
    # identification and the session-RNG counter) so two runs in one
    # process are true replicas and the pcaps compare raw.
    from repro.core import session as session_module
    from repro.netsim import packet

    packet._next_packet_id = 0
    session_module._session_counter[0] = 0

    # ``fault_world(paths=2, seed=11)``, with every session of the
    # unobserved run sharing one disabled hub.
    topo = multi_path_network(paths=2, rate_bps=5e6, seed=11)
    hub = {} if observed else {"observability": Observability(topo.net.sim, enabled=False)}
    world = World(topo.net, topo.client, topo.server, seed=11, **hub)
    world.topo = topo
    writer = PcapWriter(pcap_path, world.sim)
    for index, link in enumerate(world.topo.links):
        link.add_transformer(
            world.topo.client.interfaces[f"eth{index}"], writer
        )
    establish_paths(world)
    # The attacker rides behind the capture point on path 0: one
    # tampered ciphertext record, enough to desync the AEAD sequence
    # and force a counted failover.
    world.topo.links[0].add_transformer(
        world.topo.client.interfaces["eth0"],
        PayloadTamperer(count=1, start_after=4, seed=5),
    )
    report, _ = run_scenario(
        world, FaultPlan(name="pcap-identity"), PAYLOAD, slack=4.0
    )
    writer.close()
    report.assert_ok()
    return world


def test_attacked_run_is_pcap_identical_with_telemetry_on_or_off(tmp_path):
    on_pcap = str(tmp_path / "on.pcap")
    off_pcap = str(tmp_path / "off.pcap")
    world_on = _attacked_run(observed=True, pcap_path=on_pcap)
    world_off = _attacked_run(observed=False, pcap_path=off_pcap)

    assert world_on.sim.events_processed == world_off.sim.events_processed
    assert world_on.sim.now == world_off.sim.now
    assert world_on.client.stats == world_off.client.stats
    assert world_on.client.events.timeline == world_off.client.events.timeline
    assert (world_on.server_session.events.timeline
            == world_off.server_session.events.timeline)

    # Both runs count the attack on the session itself...
    assert world_on.server_session.stats == world_off.server_session.stats
    assert world_on.server_session.stats["guard_tripped"] >= 1
    # ...while the disabled hub recorded nothing at all.
    assert world_off.server_session.obs.snapshot()["histograms"] == {}
    assert world_off.client.obs.snapshot()["timeline"] == []

    # The strongest check: every packet on the wire is byte-identical.
    with open(on_pcap, "rb") as a, open(off_pcap, "rb") as b:
        assert a.read() == b.read()
