"""The five standing workloads.

A workload builds a *world* from a seed (topology, PKI, stacks,
listeners and, for the bulk/rpc workloads, the TLS handshake and JOIN:
everything ``setup_s`` pays for) and then *drives* it through the timed
phase, returning an :class:`Outcome` with the ops, the simulated
latency samples and the output checks.  The program under test sees
only what the seed generated: payload bytes, path delays (each drawn
within +-3 % of its nominal value), link-loss and stack/context seeds.

Why these five, and which layer each isolates, is recorded next to
each class and in bench/README.md.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List

from repro.core.events import Event
from repro.core.session import TcplsContext, TcplsServer, TcplsSession
from repro.netsim.middlebox import RstInjector
from repro.netsim.scenarios import dual_path_network
from repro.overload.world import OverloadConfig, OverloadWorld
from repro.scale.loadgen import ScaleConfig, ScaleWorld
from repro.scale.pool import PoolConfig
from repro.tcp.stack import TcpStack
from repro.tls.certificates import CertificateAuthority, TrustStore

MIB = 1 << 20
LINK_RATE_BPS = 30e6


@dataclass
class World:
    """One repeat's constructed system, ready for the timed phase."""

    sim: object
    links: list
    parts: dict


@dataclass
class Outcome:
    """What the timed phase of one repeat produced."""

    attempted: int
    completed: int
    #: Application bytes delivered and verified.
    app_bytes: int
    #: Simulated seconds the timed phase covered.
    sim_seconds: float
    #: One simulated-latency sample per completed op, seconds.
    latencies: List[float]
    #: Simulator events processed in the timed phase.
    events: int
    #: Delivered bytes per connection (digest + ``core.path_share_v6``).
    shares: Dict[str, int] = field(default_factory=dict)
    #: Output checks that failed; empty means the outputs are correct.
    failures: List[str] = field(default_factory=list)
    #: World counters the per-layer metrics read (pool, admission).
    facts: Dict[str, float] = field(default_factory=dict)
    #: Host seconds per op, where the driver issues ops itself.
    op_walls: List[float] = field(default_factory=list)


def _jitter(rng: random.Random, nominal: float) -> float:
    return nominal * rng.uniform(0.97, 1.03)


def _run_until(sim, done: Callable[[], bool], step: float, limit: float) -> None:
    """Step the simulator until ``done()`` or ``limit`` simulated seconds."""
    give_up = sim.now + limit
    while not done() and sim.now < give_up:
        sim.run(until=sim.now + step)


def _session_pair(sim, client_host, server_host, server_addr: str, seed: int,
                  mode: str, **client_options):
    """PKI, stacks, listener and one completed TLS handshake."""
    ca = CertificateAuthority("Bench Root", seed=b"bench-ca-%d" % seed)
    identity = ca.issue_identity("server.example", seed=b"bench-srv-%d" % seed)
    trust = TrustStore()
    trust.add_authority(ca)
    accepted: list = []
    TcplsServer(
        TcplsContext(identity=identity, seed=seed + 23, multipath_mode=mode),
        TcpStack(server_host, seed=seed + 22),
        on_session=accepted.append,
    )
    client = TcplsSession(
        TcplsContext(trust_store=trust, server_name="server.example",
                     seed=seed + 24, multipath_mode=mode, **client_options),
        TcpStack(client_host, seed=seed + 21),
    )
    client.connect(server_addr)
    client.handshake()
    _run_until(sim, lambda: client.handshake_complete and bool(accepted),
               step=0.1, limit=10.0)
    if not client.handshake_complete or not accepted:
        raise RuntimeError("set-up handshake did not complete")
    return client, accepted[0]


def _bulk_transfer(world: World, trace) -> Outcome:
    """Push ``payload`` over one stream; one op per MiB delivered."""
    sim = world.sim
    sender, receiver = world.parts["sender"], world.parts["receiver"]
    payload: bytes = world.parts["payload"]
    size = len(payload)
    received = bytearray()
    marks: List[float] = []

    def on_data(_stream_id: int, data: bytes) -> None:
        before = len(received) // MIB
        received.extend(data)
        after = len(received) // MIB
        marks.extend([sim.now] * (after - before))
        trace.op = after

    receiver.on_stream_data = trace.wrap(on_data)
    stream = sender.stream_new()
    sender.streams_attach()
    start = sim.now
    events = sim.events_processed
    sender.send(stream, payload)
    _run_until(sim, lambda: len(received) >= size, step=0.25, limit=300.0)

    failures = []
    if bytes(received) != payload:
        failures.append(f"payload mismatch: {len(received)}/{size} bytes received")
    return Outcome(
        attempted=size // MIB,
        completed=len(marks),
        app_bytes=len(marks) * MIB,
        sim_seconds=(marks[-1] - start) if marks else 0.0,
        latencies=[b - a for a, b in zip([start] + marks, marks)],
        events=sim.events_processed - events,
        shares={
            str(conn_id): conn.bytes_delivered
            for conn_id, conn in sorted(receiver.connections.items())
        },
        failures=failures,
    )


class Bulk2Path:
    """The paper's aggregation case and the clean fast path: 16 kB
    records, so batched AEAD, the wire cache, the scheduler and
    per-packet TCP/link/engine work are all there is; handshake and
    scalar crypto do none."""

    name = "bulk_2path"
    why = ("two-path aggregate bulk download: the clean fast path (batched AEAD, wire "
           "cache, scheduler, per-packet TCP/link/engine cost); no handshake, no loss")
    op = "1 MiB delivered"
    loop = "closed, one flow"
    worlds = 4
    mib = 8

    def build(self, seed: int, scale: float) -> World:
        rng = random.Random(seed)
        topo = dual_path_network(
            rate_bps=LINK_RATE_BPS, v4_delay=_jitter(rng, 0.010),
            v6_delay=_jitter(rng, 0.025), seed=seed,
        )
        client, server = _session_pair(
            topo.sim, topo.client, topo.server, topo.server_v4, seed, "aggregate"
        )
        joined = client.connect(topo.server_v6, src=topo.client_v6)
        client.handshake(conn_id=joined)
        _run_until(topo.sim, lambda: client.connections[joined].usable(),
                   step=0.1, limit=10.0)
        if not client.connections[joined].usable():
            raise RuntimeError("set-up JOIN did not complete")
        payload = rng.randbytes(max(1, round(self.mib * scale)) * MIB)
        return World(
            topo.sim, topo.v4_links + topo.v6_links,
            {"sender": server, "receiver": client, "payload": payload,
             "v6_conn": str(joined)},
        )

    def drive(self, world: World, trace) -> Outcome:
        outcome = _bulk_transfer(world, trace)
        total = sum(outcome.shares.values())
        v6 = outcome.shares.get(world.parts["v6_conn"], 0)
        outcome.facts["path_share_v6"] = v6 / total if total else 0.0
        return outcome


class SmallRpc:
    """Smallest messages: per-record and per-segment cost dominate and
    the AEAD falls below the batch thresholds onto scalar ChaCha20, so a
    batching optimisation shows on bulk_2path and must not move this."""

    name = "small_rpc"
    why = ("closed-loop 128 B -> 384 B RPCs on one pinned connection: per-record and "
           "per-segment cost, scalar AEAD below the batch threshold")
    op = "1 RPC"
    loop = "closed, one client, one outstanding"
    worlds = 4
    rpcs = 250
    request_bytes = 128
    response_factor = 3

    def build(self, seed: int, scale: float) -> World:
        rng = random.Random(seed)
        topo = dual_path_network(
            rate_bps=LINK_RATE_BPS, v4_delay=_jitter(rng, 0.010),
            v6_delay=_jitter(rng, 0.025), seed=seed,
        )
        client, server = _session_pair(
            topo.sim, topo.client, topo.server, topo.server_v4, seed, "pinned"
        )
        requests = [
            rng.randbytes(self.request_bytes)
            for _ in range(max(4, round(self.rpcs * scale)))
        ]
        return World(
            topo.sim, topo.v4_links + topo.v6_links,
            {"client": client, "server": server, "requests": requests},
        )

    def drive(self, world: World, trace) -> Outcome:
        sim = world.sim
        client, server = world.parts["client"], world.parts["server"]
        requests: List[bytes] = world.parts["requests"]
        request_bytes, factor = self.request_bytes, self.response_factor
        response_bytes = request_bytes * factor
        latencies: List[float] = []
        walls: List[float] = []
        failures: List[str] = []
        inbox = bytearray()
        outbox = bytearray()
        sent = {"sim": 0.0, "wall": 0.0}

        def serve(stream_id: int, data: bytes) -> None:
            inbox.extend(data)
            while len(inbox) >= request_bytes:
                request = bytes(inbox[:request_bytes])
                del inbox[:request_bytes]
                server.send(stream_id, request * factor)

        def issue() -> None:
            trace.op = len(latencies)
            sent["sim"] = sim.now
            sent["wall"] = time.perf_counter()
            client.send(stream, requests[len(latencies)])

        def on_response(_stream_id: int, data: bytes) -> None:
            outbox.extend(data)
            if len(outbox) < response_bytes:
                return
            if bytes(outbox) != requests[len(latencies)] * factor:
                failures.append(f"rpc {len(latencies)}: response mismatch")
            del outbox[:]
            walls.append(time.perf_counter() - sent["wall"])
            latencies.append(sim.now - sent["sim"])
            if len(latencies) < len(requests):
                issue()

        server.on_stream_data = trace.wrap(serve)
        client.on_stream_data = trace.wrap(on_response)
        stream = client.stream_new()
        client.streams_attach()
        start = sim.now
        events = sim.events_processed
        issue()
        _run_until(sim, lambda: len(latencies) >= len(requests),
                   step=0.05, limit=300.0)
        return Outcome(
            attempted=len(requests),
            completed=len(latencies),
            app_bytes=len(latencies) * (request_bytes + response_bytes),
            sim_seconds=sent["sim"] + (latencies[-1] if latencies else 0.0) - start,
            latencies=latencies,
            events=sim.events_processed - events,
            shares={
                str(conn_id): conn.bytes_delivered
                for conn_id, conn in sorted(client.connections.items())
            },
            failures=failures,
            op_walls=walls,
        )


class HandshakeChurn:
    """S1 shrunk.  A full handshake is ~27 ms of host time, ~95 % of it
    pure-Python X25519/Ed25519/scalar ChaCha20, so crypto key exchange
    and signatures, the TLS handshake, the session pool and timer churn
    dominate and the bulk datapath does nothing."""

    name = "handshake_churn"
    why = ("S1 churn shrunk: pooled sessions dial, serve one request, hold, get reused; "
           "X25519/Ed25519, TLS handshake, pool and timer churn dominate")
    op = "1 request completed"
    loop = "closed population, seeded arrivals at 150/s"
    worlds = 3
    sessions = 64
    arrival_rate = 150.0

    def build(self, seed: int, scale: float) -> World:
        rng = random.Random(seed)
        sessions = max(8, round(self.sessions * scale))
        config = ScaleConfig(
            sessions=sessions, reuse_fraction=0.25, listeners=2, client_hosts=4,
            arrival_span=sessions / self.arrival_rate, hold_time=0.5,
            link_delay=_jitter(rng, 0.002), seed=seed,
            pool=PoolConfig(max_streams_per_session=1, max_sessions=sessions),
        )
        world = ScaleWorld(config)
        return World(world.sim, world.links, {"world": world})

    def drive(self, world: World, trace) -> Outcome:
        scale_world: ScaleWorld = world.parts["world"]
        config = scale_world.config
        scale_world.start()
        scale_world.sim.run()
        result = scale_world.finalize()
        failures = []
        if result.requests_failed:
            failures.append(f"{result.requests_failed} requests failed")
        if result.live_events:
            failures.append(f"{result.live_events} live events after drain")
        if result.pool_stats["open"]:
            failures.append(f"{result.pool_stats['open']} pooled sessions left open")
        return Outcome(
            attempted=result.requests_started,
            completed=result.requests_completed,
            app_bytes=result.requests_completed
            * (config.request_bytes + config.response_bytes),
            sim_seconds=result.sim_time,
            latencies=list(result.ttfb),
            events=result.events_processed,
            failures=failures,
            facts={
                "dials": result.pool_stats["dials"],
                "reused": result.pool_stats["reused"],
                "peak_concurrent": result.peak_concurrent,
            },
        )


class Overload2x:
    """O1 at one point.  Uses the handshake layer differently from
    handshake_churn: a fresh context per arrival, admission decisions,
    HMAC coupons, no pool reuse, so a change that speeds pooled
    handshakes at the cost of the reject/redial path shows here."""

    name = "overload_2x"
    why = ("O1 at 2x capacity, open loop: fresh contexts per arrival, admission, "
           "coupon redial, no pool reuse; the reject path of the handshake layer")
    op = "1 arrival resolved"
    loop = "open, 120 arrivals/s against capacity 60/s"
    worlds = 3
    duration = 0.4

    def build(self, seed: int, scale: float) -> World:
        rng = random.Random(seed)
        config = OverloadConfig(
            capacity_rate=60.0, offered_multiplier=2.0,
            duration=max(0.1, self.duration * scale),
            link_delay=_jitter(rng, 0.002), seed=seed,
        )
        world = OverloadWorld(config)
        return World(world.sim, world.links, {"world": world})

    def drive(self, world: World, trace) -> Outcome:
        overload_world: OverloadWorld = world.parts["world"]
        config = overload_world.config
        overload_world.start()
        overload_world.sim.run()
        result = overload_world.finalize()
        failures = []
        resolved = result.completed + result.failed + result.rejected
        if resolved != result.offered:
            failures.append(
                f"conservation broken: {resolved} resolved of {result.offered} offered"
            )
        if result.live_events:
            failures.append(f"{result.live_events} live events after drain")
        facts = {key: float(value) for key, value in result.counts.items()}
        facts["offered"] = result.offered
        facts["rejected"] = result.rejected
        return Outcome(
            attempted=result.offered,
            completed=result.completed,
            app_bytes=result.completed
            * (config.request_bytes + config.response_bytes),
            sim_seconds=result.sim_time,
            latencies=list(result.latencies),
            events=result.events_processed,
            failures=failures,
            facts=facts,
        )


class BulkAdverse:
    """Every slow path at once, and bulk_2path's twin: loss drives
    retransmit/SACK and the scalar link fallback, the forged RST drives
    failover, reconnect-with-cookie and record replay.  A fast-path-only
    change predicts no movement here."""

    name = "bulk_adverse"
    why = ("bulk upload over a lossy access link with a forged RST: retransmit/SACK, "
           "scalar link fallback, failover, cookie reconnect and record replay")
    op = "1 MiB delivered"
    loop = "closed, one flow"
    worlds = 8
    mib = 8
    loss_rate = 0.005

    def build(self, seed: int, scale: float) -> World:
        rng = random.Random(seed)
        topo = dual_path_network(
            rate_bps=LINK_RATE_BPS, v4_delay=_jitter(rng, 0.010), seed=seed
        )
        # Only the access link is lossy and the middlebox sits on the
        # clean last hop: on a single lossy link the forged RST itself
        # is lost once in 200 runs, and then there is no failover to
        # measure.
        access, _transit, last_hop = topo.v4_links
        access.loss_rate = self.loss_rate
        size = max(1, round(self.mib * scale)) * MIB
        injector = RstInjector(trigger_bytes=size // 3)
        last_hop.add_transformer(last_hop.endpoint(0), injector)
        client, server = _session_pair(
            topo.sim, topo.client, topo.server, topo.server_v4, seed, "pinned",
            connection_user_timeout=2.0,
        )
        failovers: List[float] = []
        client.on(Event.FAILOVER, lambda **_: failovers.append(topo.sim.now))
        return World(
            topo.sim, topo.v4_links,
            {"sender": client, "receiver": server, "payload": rng.randbytes(size),
             "injector": injector, "failovers": failovers},
        )

    def drive(self, world: World, trace) -> Outcome:
        outcome = _bulk_transfer(world, trace)
        client = world.parts["sender"]
        failovers = len(world.parts["failovers"])
        if failovers != 1:
            outcome.failures.append(f"{failovers} failovers, expected exactly 1")
        if not world.parts["injector"].fired:
            outcome.failures.append("RST injector never fired")
        if not client.stats["frames_replayed"]:
            outcome.failures.append("no records replayed after the failover")
        return outcome


WORKLOADS = {
    workload.name: workload
    for workload in (Bulk2Path(), SmallRpc(), HandshakeChurn(), Overload2x(),
                     BulkAdverse())
}
