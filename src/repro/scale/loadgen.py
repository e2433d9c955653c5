"""Seeded arrival/departure churn against a multi-listener TCPLS farm.

The scenario the scale benchmark and the churn-matrix test share, on the
shared :class:`~repro.scale.farm.Farm`:

- ``config.listeners`` TCPLS listeners (ports 443, 444, ...) facing
  ``config.client_hosts`` client hosts;
- a :class:`~repro.scale.pool.SessionPool` on the client side dialling
  sessions across the listeners;
- **wave A**: ``config.sessions`` users arrive (seeded spacing across
  ``arrival_span``), each acquiring a pooled session, running one
  request/response, then *holding* the session — so at ramp end the
  whole pool is concurrently open — before releasing it back;
- **wave B**: ``reuse_fraction * sessions`` late users arrive after the
  hold period and are served from the now-idle pool (exercising the
  reuse path), then the pool drains and every session closes.

Everything is driven off ``random.Random(config.seed)`` and the
simulated clock, so a double run is digest-identical — the churn-matrix
test leans on that, clean and with a fault plan flapping client links
mid-ramp.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, ClassVar, Dict, List, Optional, Tuple

from repro.core.events import Event
from repro.utils.errors import ReproError
from repro.core.session import TcplsSession
from repro.obs.hub import Observability
from repro.scale.farm import LINK_DELAY, MAINTAIN_INTERVAL, Farm, run_world
from repro.scale.pool import PoolConfig, PooledSession, SessionPool
from repro.tls.session import SessionTicketStore

#: Per-request give-up deadline (covers fault-plan runs where a
#: request's session dies mid-flap and failover cannot save it).
REQUEST_TIMEOUT = 30.0


@dataclass
class ScaleConfig:
    """One scale run's shape.  Defaults model the full benchmark."""

    #: Peak concurrent sessions (wave A size = pool capacity).
    sessions: int = 1000
    #: Wave B arrivals, as a fraction of ``sessions`` (reuse traffic).
    reuse_fraction: float = 0.25
    #: TCPLS listeners on the server (ports 443, 444, ...).
    listeners: int = 2
    #: Client hosts sharing the dial load (each gets its own link).
    client_hosts: int = 4
    #: Seconds of simulated time over which wave A arrivals spread.
    arrival_span: float = 2.0
    #: How long each wave-A user holds its session after the response.
    hold_time: float = 0.5
    link_delay: float = LINK_DELAY
    seed: int = 1
    pool: PoolConfig = field(default_factory=PoolConfig)

    request_bytes: ClassVar[int] = 512
    response_bytes: ClassVar[int] = 2048


@dataclass
class ScaleResult:
    """What one run produced (simulated-clock quantities only)."""

    sessions: int
    requests_started: int = 0
    requests_completed: int = 0
    requests_failed: int = 0
    peak_concurrent: int = 0
    #: Per-request time-to-first-response-byte, simulated seconds.
    ttfb: List[float] = field(default_factory=list)
    sim_time: float = 0.0
    events_processed: int = 0
    live_events: int = -1
    pool_stats: Dict[str, int] = field(default_factory=dict)
    server_sessions_reaped: int = 0


class _Request:
    """One user's request lifecycle."""

    __slots__ = ("started_at", "ttfb", "received", "entry", "stream_id",
                 "departs", "done", "timeout_event")

    def __init__(self, started_at: float, departs: bool) -> None:
        self.started_at = started_at
        self.ttfb: Optional[float] = None
        self.received = 0
        self.entry: Optional[PooledSession] = None
        self.stream_id: Optional[int] = None
        self.departs = departs
        self.done = False
        self.timeout_event = None


class ScaleWorld(Farm):
    """The farm plus the session pool and the churn driver."""

    def __init__(self, config: ScaleConfig,
                 observability: Optional[Observability] = None) -> None:
        super().__init__(config, observability, config.client_hosts,
                         config.link_delay)
        self.client_ctx = self.client_context(ticket_store=SessionTicketStore())
        # Listener targets are (client-rotation-independent) port
        # choices; ``Farm.dial`` rotates client hosts itself.
        self.pool = SessionPool(
            self.sim,
            self._dial,
            listeners=self.listen(config.listeners),
            config=config.pool,
        )

        self.result = ScaleResult(sessions=config.sessions)
        self._open_sessions = 0
        self._users_pending = 0
        self._finished = False
        self._inflight: Dict[Tuple[int, int], _Request] = {}

    # -- client side -------------------------------------------------------

    def _dial(self, port: int) -> TcplsSession:
        session = self.dial(self.client_ctx, port)

        def on_handshake(**kwargs) -> None:
            self._open_sessions += 1
            if self._open_sessions > self.result.peak_concurrent:
                self.result.peak_concurrent = self._open_sessions

        def on_closed(**kwargs) -> None:
            if session.handshake_complete:
                self._open_sessions -= 1

        def on_data(stream_id: int, data: bytes) -> None:
            request = self._inflight.get((id(session), stream_id))
            if request is None:
                return
            if request.ttfb is None:
                request.ttfb = self.sim.now - request.started_at
                self.result.ttfb.append(request.ttfb)
            request.received += len(data)
            if request.received >= self.config.response_bytes:
                self._complete(request)

        session.events.on(Event.HANDSHAKE_DONE, on_handshake)
        session.events.on(Event.SESSION_CLOSED, on_closed)
        session.on_stream_data = on_data
        return session

    # -- churn driver ------------------------------------------------------

    def start(self) -> None:
        """Schedule both arrival waves and the maintenance tick."""
        config = self.config
        step = config.arrival_span / max(config.sessions, 1)
        # Wave A: seeded spacing across the ramp; holds, then departs.
        wave_a = self.arrivals(config.sessions, step)
        # Wave B: reuse traffic after every wave-A hold has released.
        wave_b = self.arrivals(
            int(config.sessions * config.reuse_fraction), step,
            start=config.arrival_span + config.hold_time,
        )
        self._users_pending = len(wave_a) + len(wave_b)
        for when in wave_a:
            self._schedule_arrival(when, departs=True)
        for when in wave_b:
            self._schedule_arrival(when, departs=False)
        self._maintain_tick()

    def _schedule_arrival(self, when: float, departs: bool) -> None:
        self.result.requests_started += 1

        def arrive() -> None:
            request = _Request(self.sim.now, departs)
            # Fires only when the response never arrived: the session
            # died unrecoverably, or no session ever came out of the pool.
            request.timeout_event = self.sim.schedule(
                REQUEST_TIMEOUT, lambda: self._fail(request)
            )
            self.pool.acquire(lambda entry: self._on_acquired(request, entry))

        self.sim.schedule(when, arrive)

    def _on_acquired(self, request: _Request, entry: PooledSession) -> None:
        session = entry.session
        request.entry = entry
        # Re-anchor TTFB at acquire time for reused sessions?  No: TTFB
        # is user-perceived, so it keeps including any wait for a dial.
        try:
            stream_id = session.stream_new()
            session.streams_attach()
            request.stream_id = stream_id
            self._inflight[(id(session), stream_id)] = request
            session.send(stream_id, b"Q" * self.config.request_bytes)
        except (ReproError, RuntimeError):
            # Guard trip or a send on a session that died between the
            # pool's choice and our write: count it, free the slot.
            self._fail(request)

    def _complete(self, request: _Request) -> None:
        if request.done:
            return
        request.done = True
        if request.timeout_event is not None:
            request.timeout_event.cancel()
        entry = request.entry
        session = entry.session
        self._inflight.pop((id(session), request.stream_id), None)
        if request.stream_id is not None:
            try:
                session.stream_close(request.stream_id)
            except (ReproError, RuntimeError):
                pass  # session already torn down; nothing to close
        self.result.requests_completed += 1
        if request.departs:
            # Hold the session (still checked out) through the end of
            # the plateau — every wave-A session must be concurrently
            # open at ramp end, so departures are anchored to one
            # absolute instant (plus jitter to stagger the close storm),
            # not to each user's own completion time.
            plateau_end = self.config.arrival_span + self.config.hold_time
            delay = max(plateau_end - self.sim.now, 0.0)
            delay += 0.05 * self.config.hold_time * self.rng.random()
            self.sim.schedule(delay, lambda: self._depart(request))
        else:
            self._depart(request)

    def _fail(self, request: _Request) -> None:
        if request.done:
            return
        request.done = True
        if request.timeout_event is not None:
            request.timeout_event.cancel()
        self.result.requests_failed += 1
        entry = request.entry
        if entry is not None:  # None: timed out still queued in the pool
            self._inflight.pop((id(entry.session), request.stream_id), None)
            self.pool.release(entry, failed=True)
        self._user_done()

    def _depart(self, request: _Request) -> None:
        self.pool.release(request.entry)
        self._user_done()

    def _user_done(self) -> None:
        self._users_pending -= 1
        if self._users_pending == 0:
            self._finish()

    def _maintain_tick(self) -> None:
        if self._finished:
            return
        self.pool.maintain()
        self.result.server_sessions_reaped += self.reap()
        self.sim.schedule(MAINTAIN_INTERVAL, self._maintain_tick)

    def _finish(self) -> None:
        self._finished = True
        self.pool.drain()
        self.result.server_sessions_reaped += self.reap()

    # -- results -----------------------------------------------------------

    def finalize(self) -> ScaleResult:
        result = self.result
        # The drain's close handshakes finish only once the clock runs
        # dry, so the last reap happens here, not in ``_finish``.
        result.server_sessions_reaped += self.reap()
        self._stamp(result)
        result.pool_stats = self.pool.stats()
        return result


def run_scale(
    config: Optional[ScaleConfig] = None,
    observability: Optional[Observability] = None,
    fault_plan=None,
    until: Optional[float] = None,
    on_world: Optional[Callable[[ScaleWorld], None]] = None,
) -> ScaleResult:
    """Build the farm, run the churn to completion, return the result
    (``fault_plan``, ``until``, ``on_world``: see :func:`run_world`)."""
    config = config or ScaleConfig()
    if config.pool.max_sessions < config.sessions:
        config.pool.max_sessions = config.sessions
    world = ScaleWorld(config, observability=observability)
    return run_world(world, fault_plan, until, on_world)
