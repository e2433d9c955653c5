"""Scenario-cell runners: one isolated simulator world per cell.

A cell is the fleet's unit of work and of verification.  ``run_cell``
rewinds the process-global counters, builds a fresh world from the
cell's derived seed, runs it under a determinism probe, and reduces the
run to a :class:`~repro.fleet.spec.CellResult`: digests, counters,
mergeable telemetry state.  Because nothing a cell touches
outlives it (and nothing from a previous cell leaks in), a cell's
digests depend only on its spec — not on which process, which shard, or
which position in the batch ran it.  That per-cell isolation is the
first leg of the fleet's merge invariant.

Three cell kinds ship:

- ``bulk`` — one TCPLS client/server pair over a duplex link moving a
  seeded payload across two streams (the smoke-scenario shape,
  parameterized);
- ``churn`` — a small ``repro.scale`` server-farm run (session pool,
  arrivals/departures) for many-session workloads;
- ``overload`` — an open-loop ``repro.overload`` storm against an
  admission-gated listener, with optional scripted workload faults
  (``stampede_at``/``slow_at``/``mem_at``...).

All accept an optional scripted link flap (``params["flap_at"]`` /
``params["flap_duration"]``) so the determinism-under-sharding tests
cover the fault path, and all honour ``spec.shake_seed`` and
``spec.pcap_path``.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.analysis.sanitizers import DeterminismProbe, reset_process_globals
from repro.fleet.spec import CellResult, CellSpec
from repro.netsim.pcap import PcapWriter
from repro.obs import keys as obs_keys
from repro.obs.telemetry import Telemetry


def _seeded_payload(seed: int, size: int) -> bytes:
    """A deterministic, seed-dependent byte pattern (no RNG draws)."""
    step = (seed % 251) + 1
    return bytes(((i * step + seed) & 0xFF) for i in range(size))


def _fault_plan(params: dict):
    """The cell's scripted fault plan, or None."""
    flap_at = params.get("flap_at")
    if flap_at is None:
        return None
    from repro.faults.plan import FaultPlan

    return FaultPlan(name="fleet-flap").flap(
        at=float(flap_at),
        duration=float(params.get("flap_duration", 0.05)),
        path=0,
    )


def _instrument(spec: CellSpec, probe: DeterminismProbe, sim, links):
    """Put ``sim`` and both directions of every link under the probe;
    returns the cell's pcap writer on the same links, or None."""
    probe.watch(sim)
    for link in links:
        probe.tap(link, link.endpoint(0))
        probe.tap(link, link.endpoint(1))
    if not spec.pcap_path:
        return None
    writer = PcapWriter(spec.pcap_path, sim)
    for link in links:
        link.add_transformer(link.endpoint(0), writer)
        link.add_transformer(link.endpoint(1), writer)
    return writer


def _run_bulk(spec: CellSpec, probe: DeterminismProbe) -> int:
    from repro.core.session import TcplsContext, TcplsServer, TcplsSession
    from repro.netsim.scenarios import simple_duplex_network
    from repro.tcp.stack import TcpStack
    from repro.tls.certificates import CertificateAuthority, TrustStore
    from repro.tls.session import SessionTicketStore

    params = spec.params
    net, client_host, server_host, link = simple_duplex_network(
        rate_bps=float(params.get("rate_bps", 100e6)),
        delay=float(params.get("delay", 0.005)),
        queue_packets=int(params.get("queue_packets", 200)),
        loss_rate=float(params.get("loss_rate", 0.0)),
        seed=spec.seed & 0xFFFFFFFF,
    )
    writer = _instrument(spec, probe, net.sim, [link])

    plan = _fault_plan(params)
    if plan is not None:
        from repro.faults.chaos import ChaosEngine

        ChaosEngine(net.sim, [link]).apply(plan)

    ca = CertificateAuthority("Repro Root", seed=b"fleet-root")
    identity = ca.issue_identity("server.example", seed=b"fleet-srv")
    trust = TrustStore()
    trust.add_authority(ca)
    client_ctx = TcplsContext(
        trust_store=trust,
        server_name="server.example",
        ticket_store=SessionTicketStore(),
        seed=spec.seed,
    )
    server_ctx = TcplsContext(identity=identity, seed=spec.seed + 1)
    client_stack = TcpStack(client_host, seed=spec.seed & 0x7FFFFFFF)
    server_stack = TcpStack(server_host, seed=(spec.seed + 1) & 0x7FFFFFFF)
    sessions: list = []
    TcplsServer(server_ctx, server_stack, port=443, on_session=sessions.append)
    client = TcplsSession(client_ctx, client_stack)

    client.connect("10.0.0.2")
    client.handshake()
    net.sim.run(until=1.0)

    payload = _seeded_payload(spec.seed, int(params.get("payload_bytes", 40_000)))
    first = client.stream_new()
    second = client.stream_new()
    client.streams_attach()
    client.send(first, payload)
    client.send(second, payload[::-1])
    net.sim.run(until=float(params.get("until", 5.0)))
    client.close()
    net.sim.run(until=float(params.get("until", 5.0)) + 1.0)

    if writer is not None:
        writer.close()
    return 1


def _run_farm(spec: CellSpec, probe: DeterminismProbe, run, config, fault_plan):
    """Run one farm world (``run_scale``/``run_overload``) under the probe."""
    writers: list = []
    result = run(
        config,
        fault_plan=fault_plan,
        until=spec.params.get("until"),
        on_world=lambda world: writers.append(
            _instrument(spec, probe, world.sim, world.links)
        ),
    )
    if writers[0] is not None:
        writers[0].close()
    return result


def _run_churn(spec: CellSpec, probe: DeterminismProbe) -> int:
    from repro.scale.loadgen import ScaleConfig, run_scale

    params = spec.params
    config = ScaleConfig(
        sessions=int(params.get("sessions", 30)),
        reuse_fraction=float(params.get("reuse_fraction", 0.25)),
        listeners=int(params.get("listeners", 2)),
        client_hosts=int(params.get("client_hosts", 2)),
        arrival_span=float(params.get("arrival_span", 0.5)),
        hold_time=float(params.get("hold_time", 0.2)),
        seed=spec.seed & 0x7FFFFFFF,
    )
    result = _run_farm(spec, probe, run_scale, config, _fault_plan(params))
    return result.requests_completed


def _overload_plan(params: dict):
    """Scripted overload faults (plus any link flap), or None."""
    from repro.faults.plan import FaultPlan

    plan = _fault_plan(params)
    extra = FaultPlan(name="fleet-overload")
    if "stampede_at" in params:
        extra.client_stampede(
            float(params["stampede_at"]),
            count=int(params.get("stampede_count", 10)),
        )
    if "slow_at" in params:
        extra.slow_reader(
            float(params["slow_at"]),
            float(params.get("slow_duration", 0.5)),
        )
    if "mem_at" in params:
        extra.memory_pressure(
            float(params["mem_at"]),
            float(params.get("mem_duration", 0.5)),
            factor=float(params.get("mem_factor", 0.1)),
        )
    if not len(extra):
        return plan
    return extra if plan is None else plan + extra


def _run_overload(spec: CellSpec, probe: DeterminismProbe) -> int:
    from repro.overload.world import OverloadConfig, run_overload

    params = spec.params
    config = OverloadConfig(
        capacity_rate=float(params.get("capacity_rate", 20.0)),
        offered_multiplier=float(params.get("offered_multiplier", 2.0)),
        duration=float(params.get("duration", 1.5)),
        client_hosts=int(params.get("client_hosts", 2)),
        seed=spec.seed & 0x7FFFFFFF,
    )
    result = _run_farm(spec, probe, run_overload, config, _overload_plan(params))
    return result.completed


_KINDS: Dict[str, Callable[[CellSpec, DeterminismProbe], int]] = {
    "bulk": _run_bulk,
    "churn": _run_churn,
    "overload": _run_overload,
}

CELL_KINDS: Tuple[str, ...] = tuple(sorted(_KINDS))


def run_cell(spec: CellSpec) -> CellResult:
    """Run one cell in an isolated world and reduce it to a result."""
    try:
        runner = _KINDS[spec.kind]
    except KeyError:
        raise ValueError(
            f"unknown cell kind {spec.kind!r} (have {', '.join(CELL_KINDS)})"
        ) from None
    reset_process_globals()
    probe = DeterminismProbe(shake_seed=spec.shake_seed)
    sessions = runner(spec, probe)
    digest = probe.digest()

    telemetry = Telemetry(enabled=True)
    telemetry.counter(obs_keys.COMP_FLEET, obs_keys.FLEET_CELLS).inc(1)
    telemetry.counter(obs_keys.COMP_FLEET, obs_keys.FLEET_EVENTS).inc(
        digest.events
    )
    telemetry.counter(obs_keys.COMP_FLEET, obs_keys.FLEET_SESSIONS).inc(sessions)
    return CellResult(
        index=spec.index,
        kind=spec.kind,
        event_digest=digest.event_hash,
        pcap_digest=digest.pcap_hash,
        clock=digest.clock,
        events=digest.events,
        packets=digest.packets,
        sessions=sessions,
        telemetry=telemetry.export_state(),
        pcap_path=spec.pcap_path,
    )
