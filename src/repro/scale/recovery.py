"""Reconnect storms: a server farm crash-restarts under live load.

The disaster-recovery scenario the R3 benchmark and the recovery-storm
test share, on the shared :class:`~repro.scale.farm.Farm`:

- ``sessions`` clients arrive across ``ARRIVAL_SPAN``, each acquiring a
  pooled session, completing one request, then *holding* the session;
- at ``CRASH_AT`` the whole server process dies
  (:class:`~repro.faults.endpoint.ServerEndpoint` via a
  ``server_restart`` fault) and returns after ``outage`` seconds —
  with rotated ticket keys when ``rotate_keys`` is set;
- ``PROBE_DELAY`` seconds after the crash every client sends its next
  request on the held (dead) session.  The server stack RSTs the
  unknown connection, the client sees ``CONN_FAILED``, releases the
  entry as failed, and re-acquires — which makes the pool redial with
  jittered exponential backoff against the dead listener until it
  returns.  That is the storm;
- every request carries a request id; the server's application state
  (the "database" — it survives the restart, unlike session state)
  counts each id's applications so the exactly-once-across-restart
  invariant is checkable;
- a handful of 0-RTT probes measure early-data acceptance before the
  crash and after the key rotation (tickets sealed under the old key
  must be *declined into a full handshake*, never fail the connection).

Everything runs off seeded RNGs and the simulated clock; a double run
is digest-identical, which the determinism sanitizer checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, ClassVar, Dict, List, Optional, Tuple

from repro.core.events import Event
from repro.core.session import TcplsSession
from repro.faults.endpoint import ServerEndpoint
from repro.faults.invariants import (
    InvariantReport,
    check_reconnect_storm,
    max_storm_recovery_time,
)
from repro.faults.plan import FaultPlan
from repro.obs.hub import Observability
from repro.scale.farm import (
    LINK_DELAY,
    MAINTAIN_INTERVAL,
    SERVER_NAME,
    Farm,
    run_world,
)
from repro.scale.pool import PoolConfig, PooledSession, SessionPool
from repro.tls.session import SessionTicketStore
from repro.utils.errors import ReproError

_RID_HEADER = 8  # request id: client(4) | seq(4), big-endian

#: The farm's shape and the arrival ramp (S1's defaults).
LISTENERS = 2
CLIENT_HOSTS = 4
ARRIVAL_SPAN = 2.0
#: When the server process dies (must be after the arrival ramp).
CRASH_AT = 3.0
#: How long after the crash each client touches its dead session.
PROBE_DELAY = 0.2
#: Slack added to the recovery-time-objective bound (handshake +
#: request/response RTTs + scheduler quantisation).
RTO_SLACK = 1.0
#: The storm's redial backoff (see :class:`PoolConfig`): jittered and
#: capped under the outage, so redials spread out instead of hammering
#: the dead listener in lockstep.
REDIAL_BACKOFF = dict(
    redial_backoff_base=0.05,
    redial_backoff_max=0.8,
    redial_backoff_jitter=0.1,
)


def _rid(client: int, seq: int) -> int:
    return (client << 32) | seq


@dataclass
class RecoveryConfig:
    """One crash-restart storm's shape."""

    sessions: int = 500
    #: Rotate the ticket keys across the restart (the disaster-recovery
    #: default: a crashed box comes back with fresh key material).
    rotate_keys: bool = True
    #: 0-RTT probes per acceptance-rate bucket (before / after).
    zero_rtt_probes: int = 8
    seed: int = 1

    #: Seconds until the process is back and listening.
    outage: ClassVar[float] = 1.0
    request_bytes: ClassVar[int] = 256
    response_bytes: ClassVar[int] = 1024


@dataclass
class RecoveryResult:
    """What one storm produced (simulated-clock quantities only)."""

    clients: int
    recovered: int = 0
    #: Per-client seconds from the crash instant to its recovered
    #: response (the benchmark's time-to-recovery distribution).
    ttr: List[float] = field(default_factory=list)
    requests_failed: int = 0
    #: 0-RTT acceptance per bucket: {"accepted", "declined", "total"}.
    early_before: Dict[str, int] = field(default_factory=dict)
    early_after: Dict[str, int] = field(default_factory=dict)
    rto_bound: float = 0.0
    sim_time: float = 0.0
    events_processed: int = 0
    live_events: int = -1
    pool_stats: Dict[str, int] = field(default_factory=dict)
    endpoint: Dict[str, object] = field(default_factory=dict)
    invariants: Optional[InvariantReport] = None


class _Client:
    """One storm participant's state machine."""

    __slots__ = ("client_id", "seq", "entry", "stream_id", "buffer",
                 "recovered_at", "done", "retries")

    def __init__(self, client_id: int) -> None:
        self.client_id = client_id
        self.seq = 0
        self.entry: Optional[PooledSession] = None
        self.stream_id: Optional[int] = None
        self.buffer = 0
        self.recovered_at: Optional[float] = None
        self.done = False
        self.retries = 0


class RecoveryWorld(Farm):
    """The farm plus the crash/restart storm driver."""

    def __init__(self, config: RecoveryConfig,
                 observability: Optional[Observability] = None) -> None:
        super().__init__(config, observability, CLIENT_HOSTS)
        # Storm clients do not failover (the whole farm is down — there
        # is no path to fail over *to*); recovery is the pool's job.
        self.client_ctx = self.client_context(
            ticket_store=SessionTicketStore(clock=lambda: self.sim.now),
            auto_failover=False,
        )
        # The 0-RTT probes keep their own ticket cache so the probe and
        # storm populations cannot consume each other's tickets.
        self.probe_ctx = self.client_context(
            seed_offset=500,
            ticket_store=SessionTicketStore(clock=lambda: self.sim.now),
            auto_failover=False,
        )
        ports = self.listen(LISTENERS)
        self.endpoint = ServerEndpoint(self.servers, name="farm")

        self.pool = SessionPool(
            self.sim,
            self._dial,
            listeners=ports,
            config=PoolConfig(
                max_sessions=max(PoolConfig.max_sessions, config.sessions),
                **REDIAL_BACKOFF,
            ),
            seed=config.seed + 7,
        )

        self.result = RecoveryResult(clients=config.sessions)
        self.clients = [_Client(i) for i in range(config.sessions)]
        # The application "database": rid -> application count.  Lives
        # at world scope, *not* session scope — it models the durable
        # store that survives the process crash.
        self.applied: Dict[int, int] = {}
        self.sent: Dict[int, int] = {}
        self._inflight: Dict[Tuple[int, int], _Client] = {}
        self._finished = False
        self._pending = 0

    # -- server side -------------------------------------------------------

    def _on_request(self, request: bytearray) -> None:
        # Apply the mutation unconditionally and count it: the
        # exactly-once invariant asserts the count stays 1, i.e.
        # clients only ever retried requests whose first copy died
        # with the crashed process.
        rid = int.from_bytes(request[:_RID_HEADER], "big")
        self.applied[rid] = self.applied.get(rid, 0) + 1

    # -- client side -------------------------------------------------------

    def _dial(self, port: int) -> TcplsSession:
        session = self.dial(self.client_ctx, port)

        def on_data(stream_id: int, data: bytes) -> None:
            client = self._inflight.get((id(session), stream_id))
            if client is None:
                return
            client.buffer += len(data)
            if client.buffer >= self.config.response_bytes:
                self._on_response(client)

        session.on_stream_data = on_data
        session.events.on(
            Event.CONN_FAILED,
            lambda **kwargs: self._on_session_dead(session),
        )
        return session

    def _on_session_dead(self, session: TcplsSession) -> None:
        """A held session's connection died (the RST after the crash)."""
        stalled = [
            client for (sid, _stream), client in list(self._inflight.items())
            if sid == id(session)
        ]
        for client in stalled:
            self._retry(client)

    def _retry(self, client: _Client) -> None:
        """The client's session is dead: free its entry, go around again."""
        entry = client.entry
        self._inflight.pop((id(entry.session), client.stream_id), None)
        client.entry = None
        client.stream_id = None
        self.pool.release(entry, failed=True)
        client.retries += 1
        if client.retries > 50:  # storm runaway backstop, never expected
            self.result.requests_failed += 1
            self._client_done(client)
            return
        self.pool.acquire(lambda entry: self._on_acquired(client, entry))

    # -- request lifecycle -------------------------------------------------

    def _send_request(self, client: _Client) -> None:
        entry = client.entry
        session = entry.session
        rid = _rid(client.client_id, client.seq)
        self.sent[rid] = 1
        try:
            stream_id = session.stream_new()
            session.streams_attach()
            client.stream_id = stream_id
            client.buffer = 0
            self._inflight[(id(session), stream_id)] = client
            payload = rid.to_bytes(_RID_HEADER, "big")
            payload += b"Q" * (self.config.request_bytes - _RID_HEADER)
            session.send(stream_id, payload)
        except (ReproError, RuntimeError):
            # The session died between the pool's choice and our write.
            self._retry(client)

    def _on_acquired(self, client: _Client, entry: PooledSession) -> None:
        client.entry = entry
        self._send_request(client)

    def _on_response(self, client: _Client) -> None:
        entry = client.entry
        session = entry.session
        self._inflight.pop((id(session), client.stream_id), None)
        if client.stream_id is not None:
            try:
                session.stream_close(client.stream_id)
            except (ReproError, RuntimeError):
                pass
        client.stream_id = None
        if client.seq == 0:
            # Pre-crash request done; hold the session and wait for the
            # post-crash probe tick.
            client.seq = 1
            return
        # Post-crash request recovered.
        client.recovered_at = self.sim.now
        self.result.ttr.append(self.sim.now - CRASH_AT)
        self.pool.release(entry)
        client.entry = None
        self._client_done(client)

    def _client_done(self, client: _Client) -> None:
        if client.done:
            return
        client.done = True
        self._pending -= 1
        if self._pending == 0:
            # Stop the self-rescheduling maintenance tick so the event
            # queue can drain (the probe events are already scheduled).
            self._finished = True

    # -- storm driver ------------------------------------------------------

    def start(self) -> None:
        sessions = self.config.sessions
        self._pending = sessions
        step = ARRIVAL_SPAN / max(sessions, 1)
        for client, t in zip(self.clients, self.arrivals(sessions, step)):
            self.sim.schedule(
                t, lambda c=client: self.pool.acquire(
                    lambda entry: self._on_acquired(c, entry)
                )
            )
        # The post-crash probe: every client touches its held session.
        self.sim.schedule(CRASH_AT + PROBE_DELAY, self._probe_all)
        self._schedule_zero_rtt_probes()
        self._maintain_tick()

    def _probe_all(self) -> None:
        for client in self.clients:
            if client.done or client.seq != 1 or client.entry is None:
                continue
            self._send_request(client)

    def _maintain_tick(self) -> None:
        if self._finished:
            return
        self.pool.maintain()
        self.reap()
        self.sim.schedule(MAINTAIN_INTERVAL, self._maintain_tick)

    # -- 0-RTT acceptance probes ------------------------------------------

    def _schedule_zero_rtt_probes(self) -> None:
        config = self.config
        if config.zero_rtt_probes <= 0:
            return
        self.result.early_before = {"accepted": 0, "declined": 0, "total": 0}
        self.result.early_after = {"accepted": 0, "declined": 0, "total": 0}
        for i in range(config.zero_rtt_probes):
            stack_index = i % len(self.client_stacks)
            # Priming visit: earns a resumption ticket and a TFO cookie.
            self.sim.schedule(
                0.1 + 0.02 * i,
                lambda si=stack_index: self._prime_probe(si),
            )
            # Before-crash probe (tickets still sealed under key A).
            self.sim.schedule(
                CRASH_AT - 0.4 + 0.01 * i,
                lambda si=stack_index: self._zero_rtt_probe(
                    si, self.result.early_before
                ),
            )
            # After-restart probe: same cached tickets, rotated keys.
            self.sim.schedule(
                CRASH_AT + config.outage + 1.5 + 0.01 * i,
                lambda si=stack_index: self._zero_rtt_probe(
                    si, self.result.early_after
                ),
            )

    def _probe_session(self, stack_index: int) -> TcplsSession:
        return TcplsSession(self.probe_ctx, self.client_stacks[stack_index])

    def _close_probe_later(self, session: TcplsSession) -> None:
        # Grace period before close: the server's NewSessionTicket
        # records trail the handshake, and an instant close_notify would
        # race the ticket delivery the later probes depend on.
        def close() -> None:
            if not session.session_closed:
                session.close()

        self.sim.schedule(0.05, close)

    def _prime_probe(self, stack_index: int) -> None:
        session = self._probe_session(stack_index)
        session.connect(
            self.client_dests[stack_index], port=443, fast_open=True
        )
        session.handshake()
        session.events.on(
            Event.HANDSHAKE_DONE,
            lambda **kwargs: self._close_probe_later(session),
        )

    def _zero_rtt_probe(self, stack_index: int, bucket: Dict[str, int]) -> None:
        if self.probe_ctx.ticket_store.count(SERVER_NAME) == 0:
            return  # priming failed; do not crash the run
        bucket["total"] += 1
        session = self._probe_session(stack_index)
        session.connect_0rtt(
            self.client_dests[stack_index],
            port=443,
            early_data=b"E" * 64,
        )

        def on_done(**kwargs) -> None:
            if session.tls.early_data_accepted:
                bucket["accepted"] += 1
            else:
                bucket["declined"] += 1
            self._close_probe_later(session)

        session.events.on(Event.HANDSHAKE_DONE, on_done)

    # -- results -----------------------------------------------------------

    def rto_bound(self) -> float:
        """The storm's recovery-time objective, from the crash instant."""
        return max_storm_recovery_time(
            self.pool.config,
            outage=self.config.outage,
            detect_delay=PROBE_DELAY + 4 * LINK_DELAY,
            slack=RTO_SLACK,
        )

    def check(self) -> InvariantReport:
        recovered_at = {
            client.client_id: client.recovered_at
            for client in self.clients
            if client.recovered_at is not None
        }
        return check_reconnect_storm(
            crash_at=CRASH_AT,
            bound=self.rto_bound(),
            clients=self.config.sessions,
            recovered_at=recovered_at,
            sent=self.sent,
            applied=self.applied,
            failed=self.result.requests_failed,
        )

    def finalize(self) -> RecoveryResult:
        result = self.result
        self._finished = True
        self.pool.drain()
        self.sim.run()
        result.recovered = sum(
            1 for client in self.clients if client.recovered_at is not None
        )
        result.rto_bound = self.rto_bound()
        self._stamp(result)
        result.pool_stats = self.pool.stats()
        result.endpoint = self.endpoint.describe()
        result.invariants = self.check()
        return result


def run_recovery(
    config: Optional[RecoveryConfig] = None,
    observability: Optional[Observability] = None,
    on_world: Optional[Callable[[RecoveryWorld], None]] = None,
) -> RecoveryResult:
    """Build the farm, run the crash-restart storm, return the result
    (``on_world``: see :func:`run_world`)."""
    config = config or RecoveryConfig()
    world = RecoveryWorld(config, observability=observability)
    plan = FaultPlan(name="crash-restart").server_restart(
        CRASH_AT, config.outage, rotate_keys=config.rotate_keys
    )
    return run_world(world, plan, None, on_world, endpoints=[world.endpoint])
