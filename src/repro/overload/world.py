"""The overload world: open-loop arrivals against an admission-gated farm.

Where :mod:`repro.scale.loadgen` models a *closed* population (users
wait for a pooled session), this world is deliberately **open-loop**:
arrivals land at ``offered_multiplier`` times the farm's engineered
capacity whether or not earlier arrivals were served, which is exactly
the regime where an unprotected server collapses.  Every arrival dials
a fresh session (worst case for handshake CPU), sends one request, and
reads one response; the server sits behind one shared
:class:`~repro.overload.admission.AdmissionController`.

The world speaks the chaos workload protocol (`stampede`,
``slow_reader_start/end``, ``memory_pressure_start/end``) so the
``client_stampede`` / ``slow_reader`` / ``memory_pressure`` fault kinds
can drive it, and both contexts share one small, *symmetric* stream
window (``STREAM_WINDOW``) so the credit loop carries real
backpressure: a slow reader parks bytes in its pull-mode read buffer,
withholds window updates, and the server's unsent response is what
fills the shedder's global budget.

Pass criterion the O1 benchmark builds on: goodput (completions per
offered second) at 4x offered load stays within a whisker of goodput
at 1x — admission turns excess load into cheap rejects, not collapse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, ClassVar, Dict, List, Optional, Tuple

from repro.core.events import Event
from repro.core.session import TcplsSession
from repro.obs.hub import Observability
from repro.overload.admission import AdmissionConfig, AdmissionController, Decision
from repro.scale.farm import LINK_DELAY, Farm, run_world
from repro.utils.errors import ReproError

#: Extra simulated time for in-flight requests to finish.
DRAIN_GRACE = 2.0
#: Symmetric per-stream window (both contexts) — small on purpose,
#: so a non-reading client stalls the server within one response.
STREAM_WINDOW = 8192
#: Admission maintenance sweep period (budget check + reaping).
TICK = 0.1
#: Rejected-with-coupon clients redial after this (plus jitter).
RETRY_DELAY = 0.3
#: Poll period for draining slow readers once their window ends.
DRAIN_INTERVAL = 0.05


@dataclass
class OverloadConfig:
    """Shape of one overload run.  Defaults model the full benchmark."""

    #: Engineered capacity: full handshakes/sec the pacer sustains.
    capacity_rate: float = 40.0
    #: Offered load as a multiple of capacity (the benchmark's sweep).
    offered_multiplier: float = 1.0
    #: Seconds over which arrivals spread (the measurement window).
    duration: float = 3.0
    client_hosts: int = 4
    link_delay: float = LINK_DELAY
    seed: int = 1

    request_bytes: ClassVar[int] = 256
    response_bytes: ClassVar[int] = 16384

    def build_admission(self) -> AdmissionConfig:
        """The admission policy ``capacity_rate`` implies."""
        return AdmissionConfig(
            handshake_rate=self.capacity_rate,
            handshake_burst=max(4.0, self.capacity_rate * 0.25),
            accept_queue=64,
            global_memory_budget=1 << 20,
            session_deadline=5.0,
            coupon_lifetime=2.0,
            seed=self.seed,
        )


@dataclass
class OverloadResult:
    """What one run produced (simulated-clock quantities only)."""

    offered: int = 0
    completed: int = 0
    failed: int = 0
    #: Arrivals refused before the handshake finished (either gate).
    rejected: int = 0
    #: Rejected arrivals that redialled with a retry coupon.
    retried: int = 0
    #: Completions per second of offered window — the flat-curve metric.
    goodput: float = 0.0
    latencies: List[float] = field(default_factory=list)
    #: ``AdmissionController.counts()`` snapshot.
    counts: Dict[str, int] = field(default_factory=dict)
    #: Shedder state edges: (time, from_state, to_state).
    transitions: List[Tuple[float, str, str]] = field(default_factory=list)
    final_state: str = ""
    sim_time: float = 0.0
    events_processed: int = 0
    live_events: int = -1


class _Client:
    """One arrival's lifecycle."""

    __slots__ = ("started_at", "session", "stream_id", "received", "slow",
                 "retried", "resolved")

    def __init__(self, started_at: float) -> None:
        self.started_at = started_at
        self.session: Optional[TcplsSession] = None
        self.stream_id: Optional[int] = None
        self.received = 0
        self.slow = False
        self.retried = False
        self.resolved = False


class OverloadWorld(Farm):
    """The farm behind admission + open-loop arrivals + chaos workload."""

    def __init__(self, config: OverloadConfig,
                 observability: Optional[Observability] = None) -> None:
        super().__init__(config, observability, config.client_hosts,
                         config.link_delay, stream_recv_window=STREAM_WINDOW)
        self.controller = AdmissionController(self.sim, config.build_admission())
        self.listen(1, admission=self.controller, on_reject=self._on_reject)

        self.result = OverloadResult()
        self._horizon = config.duration + DRAIN_GRACE
        self._clients: List[_Client] = []
        #: Coupons minted by rejections, consumed by redials (FIFO).
        self._coupons: List[bytes] = []
        #: Chaos workload flags.
        self._slow_mode = False
        self._slow_clients: List[_Client] = []

    # -- server side -------------------------------------------------------

    def _on_reject(self, decision: Decision) -> None:
        if decision.coupon:
            self._coupons.append(decision.coupon)

    # -- client side -------------------------------------------------------

    def _spawn(self, client: _Client, coupon: bytes = b"") -> None:
        # A fresh context per arrival: the worst case for handshake CPU.
        context = self.client_context(
            stream_recv_window=STREAM_WINDOW, retry_coupon=coupon
        )
        session = client.session = self.dial(context, 443)

        def on_handshake(**kwargs) -> None:
            self._on_admitted(client)

        def on_conn_failed(**kwargs) -> None:
            if not session.handshake_complete:
                self._on_rejected(client)

        def on_closed(**kwargs) -> None:
            if not client.resolved and session.handshake_complete:
                # Shed mid-request (crash model) or torn down under us.
                self._resolve(client, completed=False)

        def on_data(stream_id: int, data: bytes) -> None:
            client.received += len(data)
            if client.received >= self.config.response_bytes:
                self._finish_request(client)

        session.events.on(Event.HANDSHAKE_DONE, on_handshake)
        session.events.on(Event.CONN_FAILED, on_conn_failed)
        session.events.on(Event.SESSION_CLOSED, on_closed)
        if not client.slow:
            session.on_stream_data = on_data

    def _on_admitted(self, client: _Client) -> None:
        session = client.session
        try:
            client.stream_id = session.stream_new()
            session.streams_attach()
            session.send(client.stream_id, b"Q" * self.config.request_bytes)
        except (ReproError, RuntimeError):
            self._resolve(client, completed=False)

    def _on_rejected(self, client: _Client) -> None:
        if client.resolved:
            return
        if (not client.retried and self._coupons
                and self.sim.now < self._horizon):
            client.retried = True
            self.result.retried += 1
            coupon = self._coupons.pop(0)
            delay = RETRY_DELAY * (1.0 + 0.2 * self.rng.random())
            self.sim.schedule(delay, lambda: self._spawn(client, coupon))
            return
        self.result.rejected += 1
        client.resolved = True

    def _finish_request(self, client: _Client) -> None:
        if client.resolved:
            return
        # Resolve before closing: close() fires SESSION_CLOSED
        # synchronously and its handler would otherwise count this
        # client as a mid-request failure.
        self.result.latencies.append(self.sim.now - client.started_at)
        self._resolve(client, completed=True)
        session = client.session
        try:
            if client.stream_id is not None:
                session.stream_close(client.stream_id)
            session.close()
        except (ReproError, RuntimeError):
            pass  # already torn down; completion still counts

    def _resolve(self, client: _Client, completed: bool) -> None:
        if client.resolved:
            return
        client.resolved = True
        if completed:
            self.result.completed += 1
        else:
            self.result.failed += 1

    # -- chaos workload protocol -------------------------------------------

    def stampede(self, count: int) -> None:
        """``client_stampede``: an instant clump of extra arrivals."""
        for _ in range(count):
            self._schedule_arrival(self.rng.uniform(0.0, 0.05))

    def slow_reader_start(self) -> None:
        """``slow_reader`` window opens: new arrivals stop reading."""
        self._slow_mode = True

    def slow_reader_end(self) -> None:
        """Window closes: every parked slow reader starts draining."""
        self._slow_mode = False
        stuck, self._slow_clients = self._slow_clients, []
        for client in stuck:
            self._drain(client)

    def memory_pressure_start(self, factor: float) -> None:
        """``memory_pressure``: squeeze the shedder's global budget."""
        self.controller.shedder.pressure_factor = factor
        self.controller.maintain()

    def memory_pressure_end(self) -> None:
        self.controller.shedder.pressure_factor = 1.0
        self.controller.maintain()

    def _drain(self, client: _Client) -> None:
        """Pull-mode read loop for a formerly slow reader."""
        if client.resolved or self.sim.now > self._horizon:
            return
        session = client.session
        if session is None or client.stream_id is None:
            return
        try:
            data = session.recv_data(client.stream_id)
        except (ReproError, RuntimeError):
            return
        if data:
            client.received += len(data)
            if client.received >= self.config.response_bytes:
                self._finish_request(client)
                return
        self.sim.schedule(DRAIN_INTERVAL, lambda: self._drain(client))

    # -- arrival driver ----------------------------------------------------

    def start(self) -> None:
        config = self.config
        offered_rate = config.capacity_rate * config.offered_multiplier
        count = max(1, int(offered_rate * config.duration))
        step = config.duration / count
        for t in self.arrivals(count, step):
            self._schedule_arrival(t)
        self._maintain_tick()

    def _schedule_arrival(self, when: float) -> None:
        self.result.offered += 1

        def arrive() -> None:
            client = _Client(self.sim.now)
            client.slow = self._slow_mode
            if client.slow:
                self._slow_clients.append(client)
            self._clients.append(client)
            self._spawn(client)

        self.sim.schedule(when, arrive)

    def _maintain_tick(self) -> None:
        self.controller.maintain()
        self.reap()
        if self.sim.now < self._horizon:
            self.sim.schedule(TICK, self._maintain_tick)

    # -- results -----------------------------------------------------------

    def finalize(self) -> OverloadResult:
        result = self.result
        for client in self._clients:
            if not client.resolved:
                self._resolve(client, completed=False)
        result.goodput = result.completed / max(self.config.duration, 1e-9)
        result.counts = self.controller.counts()
        result.transitions = list(self.controller.shedder.transitions)
        result.final_state = self.controller.shedder.state
        self._stamp(result)
        return result


def run_overload(
    config: Optional[OverloadConfig] = None,
    observability: Optional[Observability] = None,
    fault_plan=None,
    until: Optional[float] = None,
    on_world: Optional[Callable[[OverloadWorld], None]] = None,
) -> OverloadResult:
    """Build the farm, run the storm to completion, return the result
    (``fault_plan``, ``until``, ``on_world``: see :func:`run_world`).

    Workload fault kinds (``client_stampede``/``slow_reader``/
    ``memory_pressure``) target the world itself through the chaos
    workload protocol.
    """
    world = OverloadWorld(config or OverloadConfig(), observability=observability)
    return run_world(world, fault_plan, until, on_world, workloads=[world])
