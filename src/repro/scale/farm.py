"""The server farm every load world stands on, and the one way to run it.

S1 churn (:mod:`repro.scale.loadgen`), R3 crash-restart
(:mod:`repro.scale.recovery`) and O1 overload
(:mod:`repro.overload.world`) differ in *who arrives when and what
happens to a request*; the testbed under them is built here, once: one
server host on one TCP stack, a link to each client host, one PKI, one
server context on the shared observability hub, a responder answering
``request_bytes`` with ``response_bytes``, and dials rotating across the
client hosts.  Construction order is part of the contract: packet and
session ids come from process-global counters, so digests depend on it.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.session import TcplsContext, TcplsServer, TcplsSession
from repro.faults.chaos import ChaosEngine
from repro.netsim.topology import Network
from repro.obs.hub import Observability
from repro.tcp.stack import TcpStack
from repro.tls.certificates import CertificateAuthority, TrustStore

SERVER_NAME = "farm.example"
#: Fat enough that no world is link-limited: the farm studies the
#: server's handshake and session cost, not its access network.
LINK_RATE_BPS = 1e9
LINK_DELAY = 0.002
QUEUE_PACKETS = 512
#: Sweep period of the pooled worlds (S1, R3): pool maintenance plus
#: reaping closed server sessions.
MAINTAIN_INTERVAL = 0.25


class Farm:
    """Network, client stacks, PKI, server context and listeners; reads
    ``seed``, ``request_bytes`` and ``response_bytes`` off whichever
    world's ``config`` it is given."""

    def __init__(self, config, observability: Optional[Observability],
                 client_hosts: int, link_delay: float = LINK_DELAY,
                 **server_options) -> None:
        self.config = config
        self.net = Network()
        self.sim = self.net.sim
        self.rng = random.Random(config.seed)
        self.obs = observability or Observability(self.sim, enabled=True)

        server_host = self.net.add_host("server")
        self.client_stacks: List[TcpStack] = []
        self.client_dests: List[str] = []
        self.links = []
        for i in range(client_hosts):
            client_host = self.net.add_host(f"client{i}")
            c_if = client_host.add_interface("eth0").configure_ipv4(
                f"10.0.{i}.1/24"
            )
            s_if = server_host.add_interface(f"eth{i}").configure_ipv4(
                f"10.0.{i}.2/24"
            )
            self.links.append(
                self.net.connect(
                    c_if,
                    s_if,
                    rate_bps=LINK_RATE_BPS,
                    delay=link_delay,
                    queue_packets=QUEUE_PACKETS,
                    seed=config.seed + i,
                )
            )
            self.client_stacks.append(TcpStack(client_host, seed=config.seed + i))
            self.client_dests.append(f"10.0.{i}.2")
        self.net.compute_routes()

        ca = CertificateAuthority("Repro Root", seed=b"root")
        identity = ca.issue_identity(SERVER_NAME, seed=b"farm")
        self.trust = TrustStore()
        self.trust.add_authority(ca)

        # One shared hub on the server side keeps the server sessions'
        # record-size histograms and TCP snapshots in one place; every client
        # session shares one disabled hub — a thousand per-session hubs
        # would dominate the run's memory.  No world result reads either
        # hub: counts live on the sessions, the pool and the controller.
        self._client_obs = Observability(self.sim, enabled=False)
        self.server_ctx = TcplsContext(
            identity=identity,
            seed=config.seed + 1000,
            observability=self.obs,
            **server_options,
        )
        self._server_stack = TcpStack(server_host, seed=config.seed + 2000)
        self.servers: List[TcplsServer] = []
        self._server_rx: Dict[Tuple[int, int], bytearray] = {}
        self._dial_rotation = 0

    # -- server side -------------------------------------------------------

    def listen(self, count: int, **listener_options) -> List[int]:
        """Open ``count`` listeners on 443, 444, ...; returns the ports."""
        ports = [443 + i for i in range(count)]
        for port in ports:
            self.servers.append(
                TcplsServer(
                    self.server_ctx,
                    self._server_stack,
                    port=port,
                    on_session=self._on_server_session,
                    **listener_options,
                )
            )
        return ports

    def _on_server_session(self, session: TcplsSession) -> None:
        key_base = id(session)

        def on_data(stream_id: int, data: bytes) -> None:
            key = (key_base, stream_id)
            buffer = self._server_rx.setdefault(key, bytearray())
            buffer.extend(data)
            if len(buffer) < self.config.request_bytes:
                return
            del self._server_rx[key]
            self._on_request(buffer)
            session.send(stream_id, b"R" * self.config.response_bytes)

        session.on_stream_data = on_data

    def _on_request(self, request: bytearray) -> None:
        """Hook: a whole request arrived (R3 keeps its id ledger here)."""

    def reap(self) -> int:
        """Free closed server sessions; returns how many."""
        return sum(server.reap_closed() for server in self.servers)

    # -- client side -------------------------------------------------------

    def client_context(self, seed_offset: int = 0, **options) -> TcplsContext:
        return TcplsContext(
            trust_store=self.trust,
            server_name=SERVER_NAME,
            seed=self.config.seed + seed_offset,
            observability=self._client_obs,
            **options,
        )

    def dial(self, context: TcplsContext, port: int) -> TcplsSession:
        """Connect and start the handshake from the next client host."""
        i = self._dial_rotation % len(self.client_stacks)
        self._dial_rotation += 1
        session = TcplsSession(context, self.client_stacks[i])
        session.connect(self.client_dests[i], port=port)
        session.handshake()
        return session

    def arrivals(self, count: int, step: float, start: float = 0.0) -> List[float]:
        """``count`` seeded arrival instants after ``start``, ``step``
        apart on average (each gap jittered to 0.2-1.8 of it)."""
        times, t = [], start
        for _ in range(count):
            t += self.rng.uniform(0.2, 1.8) * step
            times.append(t)
        return times

    # -- results -----------------------------------------------------------

    def _stamp(self, result) -> None:
        result.sim_time = self.sim.now
        result.events_processed = self.sim.events_processed
        result.live_events = self.sim.pending_events()


def run_world(world: Farm, fault_plan=None, until: Optional[float] = None,
              on_world: Optional[Callable] = None, **chaos_targets):
    """Run a constructed world to completion and return its result.

    ``on_world`` runs after construction but before the clock starts —
    the determinism probe hooks in there.  ``fault_plan`` applies to the
    per-client-host links (path *i* = client host ``i``'s link);
    ``chaos_targets`` (``endpoints=``/``workloads=``) are what its
    endpoint and workload fault kinds act on.
    """
    if on_world is not None:
        on_world(world)
    engine = None
    if fault_plan is not None:
        engine = ChaosEngine(world.sim, world.links, **chaos_targets)
        engine.apply(fault_plan)
    world.start()
    world.sim.run(until=until)
    if engine is not None:
        # Repair whatever a run cut short by ``until`` left mid-fault.
        engine.teardown()
    return world.finalize()
