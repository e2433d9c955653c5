"""What a TCPLS session does when a TCP connection dies (paper 2.1).

The session carries streams, records and the ACK/replay buffer; this
module owns the policy on top: fail over onto a surviving path, redial
the lost one with a JOIN cookie under bounded exponential backoff, give
up, and tell the application how degraded the session is meanwhile.

The redial loop is in one of three states, and ``_enter`` is the only
place that changes it (disarming whatever the old state armed):

=========  =====================================  =====================
state      armed                                  leaves on
=========  =====================================  =====================
IDLE       nothing                                ``conn_failed`` of an
                                                  ACTIVE connection
                                                  (client, first dial)
DIALLING   ``attempt_conn`` + JOIN-timeout timer  ``joined(attempt)`` ->
                                                  IDLE; ``conn_failed
                                                  (attempt)`` or JOIN
                                                  timeout -> BACKOFF
BACKOFF    backoff timer                          expiry -> DIALLING,
                                                  or IDLE when the retry
                                                  budget or the cookie
                                                  purse is empty
=========  =====================================  =====================

``cancel()`` goes to IDLE from anywhere.  A connection that fails while
another is being redialled does not start a second episode; once the
first one is ``joined``, ``_redial_next`` picks up any path still
missing.  Everything else (a stranger's failure or JOIN, a JOIN timeout
of an attempt that already ended) leaves the state alone.

The session reports ``conn_failed``, ``path_active``, ``joined`` and
``cancel``; this class reaches back through ``connect``,
``connections``, ``_active_conns``, ``_start_join``, ``_take_over``,
``_fail_connection``, ``events``, ``cookie_purse``,
``context.auto_failover``, ``rng``, ``sim`` and the flags
``is_server`` / ``session_closed`` — nothing else.  An episode is on the
session's event timeline alone: ``CONN_FAILED`` opens it, each
``CONN_RETRY`` dials (backing off after a failed attempt's
``CONN_FAILED``), and ``FAILOVER`` or ``SESSION_DEGRADED`` closes it.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Optional

from repro.core.connection import TcplsConnection
from repro.core.events import Event
from repro.core.health import best_path

if TYPE_CHECKING:
    from repro.core.session import TcplsSession


class ReconnectState(enum.Enum):
    IDLE = "idle"
    DIALLING = "dialling"
    BACKOFF = "backoff"


# The redial loop's bounds.  Attempt i waits
# ``min(RECONNECT_BACKOFF_BASE * 2**(i-1), RECONNECT_BACKOFF_MAX)`` plus
# up to RECONNECT_BACKOFF_JITTER of that again before redialling, for at
# most RECONNECT_MAX_RETRIES attempts (each consuming one JOIN cookie);
# JOIN_TIMEOUT fails an attempt whose JOIN hangs without its TCP
# connection dying.  ``faults.invariants.max_recovery_time`` bounds a
# recovery by the same five values.
RECONNECT_MAX_RETRIES = 4
RECONNECT_BACKOFF_BASE = 0.25
RECONNECT_BACKOFF_MAX = 4.0
RECONNECT_BACKOFF_JITTER = 0.1
JOIN_TIMEOUT = 10.0

# The degradation ladder: healthy < single_path < no_path.
_RANK = {None: 0, "single_path": 1, "no_path": 2}


class Recovery:
    """Failover, cookie redial and degradation level of one session."""

    def __init__(self, session: "TcplsSession") -> None:
        self._session = session

        self.state = ReconnectState.IDLE
        # The episode in flight (meaningful outside IDLE): the path being
        # redialled and how many dials it has cost.
        self.failed: Optional[TcplsConnection] = None
        self.attempt = 0
        # What the current state armed.
        self.attempt_conn: Optional[TcplsConnection] = None
        self._timer = None

        # ``degraded_level`` is None, "single_path" or "no_path";
        # ``_peak_active`` remembers the best path redundancy the session
        # ever had, so dropping from 2 paths to 1 counts as degradation
        # but a single-path session does not.
        self.degraded_level: Optional[str] = None
        self._degraded_since = 0.0
        self._peak_active = 0

    # -- inputs from the session -------------------------------------------

    def conn_failed(
        self, conn: TcplsConnection, reason: str, was_active: bool
    ) -> None:
        """A connection of an established, open session just failed."""
        self._reassess(reason)
        if conn is self.attempt_conn:
            # A failing *reconnection attempt* feeds the retry loop, not
            # a fresh failover (the attempt was never ACTIVE).
            self._back_off()
            return
        session = self._session
        if not was_active or not session.context.auto_failover:
            return
        # With survivors, traffic moves onto the healthiest one at once.
        target = best_path(session._active_conns())
        if target is not None:
            session._take_over(conn, target)
        # Failover restores *connectivity*; the client's redial restores
        # *redundancy* (single_path -> RECOVERED once the JOIN lands), or
        # connectivity itself when nothing survived.
        if not session.is_server:
            self._begin(conn)

    def path_active(self) -> None:
        """A connection became usable: update redundancy bookkeeping and
        emit SESSION_RECOVERED if a degradation just healed."""
        self._peak_active = max(
            self._peak_active, len(self._session._active_conns())
        )
        self._reassess("path_active")

    def joined(self, conn: TcplsConnection) -> None:
        """A client JOIN completed; ours if it is the attempt in flight."""
        if conn is not self.attempt_conn:
            return
        self._enter(ReconnectState.IDLE)
        self._session._take_over(self.failed, conn, attempts=self.attempt)
        self._redial_next()

    def cancel(self) -> None:
        """The owning process died: disarm whatever the episode armed."""
        self._enter(ReconnectState.IDLE)

    # -- the redial loop -----------------------------------------------------

    def _enter(
        self,
        state: ReconnectState,
        attempt_conn: Optional[TcplsConnection] = None,
    ) -> None:
        """The only place ``state`` changes: whatever the old state
        armed is disarmed first."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self.attempt_conn = attempt_conn
        self.state = state

    def _begin(self, failed: TcplsConnection) -> None:
        if self.state is not ReconnectState.IDLE:
            return  # one episode at a time; ``_redial_next`` follows up
        self.failed = failed
        self.attempt = 0
        self._dial()

    def _dial(self) -> None:
        session = self._session
        if session.session_closed:
            return  # a graceful close leaves the episode where it stands
        budget = RECONNECT_MAX_RETRIES
        if self.attempt >= budget:
            self._abandon("retries_exhausted")
            return
        if len(session.cookie_purse) == 0:
            # Checked after the budget so "out of budget" is never
            # misreported as "out of cookies".
            self._abandon("cookies_exhausted")
            return
        self.attempt += 1
        old = self.failed.tcp
        dest = str(old.remote_addr)
        session.events.emit(
            Event.CONN_RETRY, attempt=self.attempt, dest=dest, max_retries=budget
        )
        conn_id = session.connect(dest, old.remote_port, src=str(old.local_addr))
        conn = session.connections[conn_id]
        self._enter(ReconnectState.DIALLING, conn)
        session._start_join(conn)
        self._timer = session.sim.schedule(JOIN_TIMEOUT, self._join_timed_out, conn)

    def _join_timed_out(self, conn: TcplsConnection) -> None:
        if conn is not self.attempt_conn:
            return  # that attempt already ended
        self._timer = None
        # Comes back as ``conn_failed(conn)``: the retry loop advances.
        self._session._fail_connection(
            conn, "join_timeout", "reconnect JOIN timed out"
        )

    def _back_off(self) -> None:
        self._enter(ReconnectState.BACKOFF)
        session = self._session
        delay = min(
            RECONNECT_BACKOFF_BASE * (2 ** (self.attempt - 1)),
            RECONNECT_BACKOFF_MAX,
        )
        delay += delay * RECONNECT_BACKOFF_JITTER * session.rng.random()
        self._timer = session.sim.schedule(delay, self._backoff_expired)

    def _backoff_expired(self) -> None:
        self._timer = None
        self._dial()

    def _redial_next(self) -> None:
        """If the session is still short on redundancy, redial the next
        failed path (e.g. the survivor died while its sibling was being
        reconnected).  A path counts as restored when some ACTIVE
        connection shares its (local, remote) address pair."""
        if self._level() is None:
            return
        session = self._session
        restored = {
            (str(conn.tcp.local_addr), str(conn.tcp.remote_addr))
            for conn in session._active_conns()
        }
        stale = [
            conn
            for conn in session.connections.values()
            if conn.state == TcplsConnection.FAILED
            and (str(conn.tcp.local_addr), str(conn.tcp.remote_addr))
            not in restored
        ]
        if stale:
            self._begin(stale[-1])

    def _abandon(self, reason: str) -> None:
        self._enter(ReconnectState.IDLE)
        # With nothing left this is terminal — emitted even though a
        # DEGRADED event already fired for the level transition:
        # ``terminal`` is the signal callers react to (tear down, alert,
        # re-dial by hand).  With survivors the session lives on at its
        # current level and the event only restates it, so observers
        # learn the redial gave up.
        level = self._level()
        terminal = level == "no_path"
        if terminal:
            self.degraded_level = level
        self._session.events.emit(
            Event.SESSION_DEGRADED, level=level, reason=reason, terminal=terminal
        )

    # -- degradation bookkeeping ----------------------------------------------

    def _level(self) -> Optional[str]:
        active = len(self._session._active_conns())
        if active == 0:
            return "no_path"
        if active == 1 and self._peak_active >= 2:
            return "single_path"
        return None

    def _reassess(self, reason: str) -> None:
        """Emit the app-visible DEGRADED/RECOVERED pair on transitions.

        Worsening emits SESSION_DEGRADED, improving emits
        SESSION_RECOVERED (with the level recovered *to* — a reconnect
        out of ``no_path`` onto one path is a recovery even if
        redundancy is not yet back).  Only failures move the needle;
        graceful retirement (migration) never calls this.
        """
        session = self._session
        if session.session_closed:
            return
        level = self._level()
        old = self.degraded_level
        if level == old:
            return
        if _RANK[level] > _RANK[old]:
            if old is None:
                self._degraded_since = session.sim.now
            session.events.emit(
                Event.SESSION_DEGRADED, level=level, reason=reason, terminal=False
            )
        else:
            session.events.emit(
                Event.SESSION_RECOVERED,
                level=level,
                downtime=session.sim.now - self._degraded_since,
            )
        self.degraded_level = level
