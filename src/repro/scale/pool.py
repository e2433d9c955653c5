"""Scored TCPLS session pool and multi-listener dispatcher.

A scale run keeps a bounded set of client TCPLS sessions open toward a
farm of listeners and multiplexes request arrivals onto them.  The pool
owns the whole session lifecycle:

- **dial** — when demand outruns supply, a new session is dialled via
  the listener whose dial history looks best (handshake-time EWMA
  inflated by its failure ratio);
- **reuse** — an arrival is served by the *best-scoring* ready session
  with spare stream capacity; the score is the session's best usable
  path score (:func:`repro.core.health.path_score`, lower is better)
  plus a load term as requests stack on it;
- **retire** — sessions are closed when they fail or lose every usable
  connection; ``maintain()`` sweeps idle sessions against the same
  criteria.

Everything is event-driven off the session's ``EventDispatcher``
(``HANDSHAKE_DONE`` marks a dial ready, ``CONN_FAILED`` during dialling
marks it failed, ``SESSION_CLOSED`` auto-retires), so the pool works
under simulator determinism checks: every choice iterates pool entries
in creation order and breaks ties by entry id.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.events import Event
from repro.core.health import path_score

#: Score assigned to a session with no usable connection at all.
SCORE_UNUSABLE = float("inf")
#: Score added per request already multiplexed on the session.
LOAD_WEIGHT = 0.05
#: How strongly a listener's failure ratio inflates its dial score.
FAIL_WEIGHT = 4.0
#: EWMA gain for per-listener handshake-time tracking.
HANDSHAKE_EWMA_ALPHA = 0.3
#: Stand-in handshake time for a listener that has been dialled but
#: never completed a handshake — without it a listener that only ever
#: fails would keep scoring 0 and soak up every dial.
NOMINAL_HANDSHAKE = 0.1


@dataclass
class PoolConfig:
    """Knobs for :class:`SessionPool`."""

    #: Hard cap on concurrently open (non-retired) sessions.
    max_sessions: int = 64
    #: Requests multiplexed on one session at a time (streams in flight).
    max_streams_per_session: int = 1

    # Redial backoff after a failed dial.  0 base keeps the legacy
    # behaviour (immediate synchronous redial — fine for isolated
    # failures, catastrophic in a reconnect storm where N clients
    # hammer a dead listener in lockstep).  With a positive base, retry
    # ``i`` waits ``min(base * 2**(i-1), max) * (1 + jitter * U[0,1))``
    # seconds; the jitter decorrelates the storm so redials spread out
    # instead of arriving as one synchronized thundering herd.
    redial_backoff_base: float = 0.0
    redial_backoff_max: float = 2.0
    redial_backoff_jitter: float = 0.1


class ListenerStats:
    """Dial history for one listener, for dispatcher choice."""

    __slots__ = ("target", "dials", "failures", "handshake_ewma")

    def __init__(self, target: object) -> None:
        self.target = target
        self.dials = 0
        self.failures = 0
        self.handshake_ewma = 0.0  # 0.0 until the first handshake lands

    def record_handshake(self, seconds: float) -> None:
        if self.handshake_ewma == 0.0:
            self.handshake_ewma = seconds
        else:
            self.handshake_ewma += HANDSHAKE_EWMA_ALPHA * (
                seconds - self.handshake_ewma
            )

    def score(self) -> float:
        """Lower is better; untried listeners score 0 so each gets tried."""
        if not self.dials:
            return 0.0
        fail_ratio = self.failures / self.dials
        base = self.handshake_ewma if self.handshake_ewma > 0.0 else NOMINAL_HANDSHAKE
        return base * (1.0 + FAIL_WEIGHT * fail_ratio)


class PooledSession:
    """One pool entry wrapping a TCPLS client session."""

    CONNECTING = "CONNECTING"
    READY = "READY"
    RETIRED = "RETIRED"

    __slots__ = (
        "entry_id",
        "session",
        "listener",
        "state",
        "active",
        "uses",
        "dialed_at",
        "ready_at",
        "dial_attempt",
    )

    def __init__(self, entry_id: int, session, listener: ListenerStats,
                 dialed_at: float, dial_attempt: int = 1) -> None:
        self.entry_id = entry_id
        self.session = session
        self.listener = listener
        self.state = PooledSession.CONNECTING
        self.active = 0      # requests currently checked out
        self.uses = 0        # lifetime acquisitions
        self.dialed_at = dialed_at
        self.ready_at: Optional[float] = None
        self.dial_attempt = dial_attempt  # 1 = first try, 2+ = redials

    def path_score(self) -> float:
        """Best usable path's health score, or unusable."""
        best = SCORE_UNUSABLE
        for conn in self.session.connections.values():
            if conn.usable():
                score = path_score(conn)
                if score < best:
                    best = score
        return best

    def score(self) -> float:
        """Selection score: path health + load (lower is better)."""
        base = self.path_score()
        if base == SCORE_UNUSABLE:
            return base
        return base + LOAD_WEIGHT * self.active

    def usable(self) -> bool:
        return (
            self.state == PooledSession.READY
            and not self.session.session_closed
            and self.path_score() != SCORE_UNUSABLE
        )


class SessionPool:
    """Scored pool of TCPLS client sessions across several listeners.

    ``dial`` is the session factory: called with a listener target (one
    of ``listeners``), it must return a ``TcplsSession`` that has been
    ``connect()``-ed and had ``handshake()`` started.  The pool hears
    about the outcome through the session's events.

    ``acquire(callback)`` serves the callback with a :class:`PooledSession`
    as soon as one is ready — immediately when a ready session has spare
    capacity, otherwise after a dial completes.  Callers must pair every
    served acquire with ``release(entry, failed=...)``.
    """

    def __init__(
        self,
        sim,
        dial: Callable[[object], object],
        listeners: Sequence[object],
        config: Optional[PoolConfig] = None,
        seed: int = 0,
    ) -> None:
        if not listeners:
            raise ValueError("SessionPool needs at least one listener")
        self.sim = sim
        self.config = config or PoolConfig()
        self._dial_fn = dial
        self.listeners = [ListenerStats(target) for target in listeners]
        self.entries: List[PooledSession] = []
        self._waiters: List[Callable[[PooledSession], None]] = []
        self._next_entry_id = 0
        self._draining = False
        # Backoff jitter source: seeded, so a storm replays identically
        # under the determinism sanitizer.
        self._rng = random.Random(seed)

        # The pool's lifetime counts; ``stats()`` reports them with the
        # current open/ready/waiter sizes.
        self.counts = {
            "dials": 0, "reused": 0, "retired": 0, "failed": 0, "redials": 0,
        }

    # -- introspection -----------------------------------------------------

    def open_count(self) -> int:
        """Sessions currently connecting or ready."""
        return len(self.entries)

    def ready_count(self) -> int:
        return sum(1 for e in self.entries if e.state == PooledSession.READY)

    def waiter_count(self) -> int:
        return len(self._waiters)

    def stats(self) -> Dict[str, int]:
        snapshot = dict(self.counts)
        snapshot.update(
            open=self.open_count(),
            ready=self.ready_count(),
            waiters=self.waiter_count(),
        )
        return snapshot

    # -- acquisition -------------------------------------------------------

    def acquire(self, callback: Callable[[PooledSession], None]) -> None:
        """Serve ``callback`` with a pooled session when one is available."""
        if self._draining:
            raise RuntimeError("acquire() on a draining pool")
        entry = self._best_available()
        if entry is not None:
            self._check_out(entry, callback)
            return
        self._waiters.append(callback)
        if self.open_count() < self.config.max_sessions:
            self._dial()

    def release(self, entry: PooledSession, failed: bool = False) -> None:
        """Return a checked-out session; ``failed`` retires it."""
        if entry.active <= 0:
            raise RuntimeError(f"release() without acquire on entry {entry.entry_id}")
        entry.active -= 1
        if failed:
            self.counts["failed"] += 1
            entry.listener.failures += 1
            self.retire(entry)
        elif entry.state != PooledSession.RETIRED and (
            entry.session.session_closed
            or entry.path_score() == SCORE_UNUSABLE
        ):
            self.retire(entry)
        self._serve_waiters()

    def retire(self, entry: PooledSession) -> None:
        """Remove a session from the pool and close it once idle."""
        if entry.state == PooledSession.RETIRED:
            return
        entry.state = PooledSession.RETIRED
        if entry in self.entries:
            self.entries.remove(entry)
        self.counts["retired"] += 1
        if entry.active == 0 and not entry.session.session_closed:
            entry.session.close()

    def maintain(self) -> None:
        """Health sweep; call periodically under churn."""
        for entry in list(self.entries):
            if entry.state != PooledSession.READY or entry.active:
                continue
            if (
                entry.session.session_closed
                or entry.path_score() == SCORE_UNUSABLE
            ):
                self.retire(entry)
        self._serve_waiters()

    def drain(self) -> int:
        """Retire every session; returns how many were closed."""
        self._draining = True
        self._waiters.clear()
        closing = list(self.entries)
        for entry in closing:
            self.retire(entry)
        return len(closing)

    # -- internals ---------------------------------------------------------

    def _best_available(self) -> Optional[PooledSession]:
        best = None
        best_key = None
        for entry in self.entries:
            if not entry.usable():
                continue
            if entry.active >= self.config.max_streams_per_session:
                continue
            key = (entry.score(), entry.entry_id)
            if best_key is None or key < best_key:
                best, best_key = entry, key
        return best

    def _check_out(self, entry: PooledSession, callback) -> None:
        entry.active += 1
        entry.uses += 1
        if entry.uses > 1:
            self.counts["reused"] += 1
        callback(entry)

    def _dial(self, attempt: int = 1) -> None:
        pick = min(
            range(len(self.listeners)),
            key=lambda i: (self.listeners[i].score(), i),
        )
        listener = self.listeners[pick]
        listener.dials += 1
        self.counts["dials"] += 1
        session = self._dial_fn(listener.target)
        entry = PooledSession(
            self._next_entry_id, session, listener, self.sim.now,
            dial_attempt=attempt,
        )
        self._next_entry_id += 1
        self.entries.append(entry)

        def on_handshake(**kwargs) -> None:
            self._on_ready(entry)

        def on_conn_failed(**kwargs) -> None:
            if entry.state == PooledSession.CONNECTING:
                self._on_dial_failed(entry)

        def on_session_closed(**kwargs) -> None:
            if entry.state != PooledSession.RETIRED:
                self.retire(entry)

        session.events.on(Event.HANDSHAKE_DONE, on_handshake)
        session.events.on(Event.CONN_FAILED, on_conn_failed)
        session.events.on(Event.SESSION_CLOSED, on_session_closed)

    def _on_ready(self, entry: PooledSession) -> None:
        if entry.state != PooledSession.CONNECTING:
            return
        entry.state = PooledSession.READY
        entry.ready_at = self.sim.now
        entry.listener.record_handshake(self.sim.now - entry.dialed_at)
        self._serve_waiters()

    def _on_dial_failed(self, entry: PooledSession) -> None:
        self.counts["failed"] += 1
        entry.listener.failures += 1
        self.retire(entry)
        # Keep demand covered: the waiter that triggered this dial still
        # needs a session.
        if not (
            self._waiters
            and not self._draining
            and self.open_count() < self.config.max_sessions
        ):
            return
        config = self.config
        if config.redial_backoff_base <= 0.0:
            # Legacy immediate redial.
            self._dial(entry.dial_attempt + 1)
            return
        attempt = entry.dial_attempt
        delay = min(
            config.redial_backoff_base * 2 ** (attempt - 1),
            config.redial_backoff_max,
        ) * (1.0 + config.redial_backoff_jitter * self._rng.random())
        self.counts["redials"] += 1
        self.sim.schedule(delay, self._redial, attempt + 1)

    def _redial(self, attempt: int) -> None:
        # Demand may have evaporated (or been served) during the backoff.
        if (
            self._waiters
            and not self._draining
            and self.open_count() < self.config.max_sessions
        ):
            self._dial(attempt)

    def _serve_waiters(self) -> None:
        while self._waiters:
            entry = self._best_available()
            if entry is None:
                break
            callback = self._waiters.pop(0)
            self._check_out(entry, callback)
