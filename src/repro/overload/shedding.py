"""Deadline-based load shedding under a global memory budget.

Per-session memory budgets (``core.session.MAX_SESSION_MEMORY``) bound
what one peer can pin, but a farm's failure mode is the *sum*: many
sessions each legitimately under their own cap.  The shedder promotes
those per-session budgets into one global budget and walks a three-state
machine on the fill fraction:

    NORMAL --(>= DEGRADED_WATERMARK)--> DEGRADED
    DEGRADED --(>= SHED_WATERMARK)----> SHEDDING  (drops sessions)
    any ----(<= RECOVER_WATERMARK)----> NORMAL    (a "recovered" edge)

In SHEDDING, registered sessions are dropped oldest-deadline-first
(each session gets ``now + session_deadline`` at admission, so the
longest-running sessions — the ones that have had the most service —
are sacrificed before fresh admits) until the budget falls back under
the recover watermark.  Dropping uses the crash model: the session
vanishes and the peer learns from RSTs, exactly what an OOM-killed
worker would look like.

The ``memory_pressure`` fault kind squeezes the budget via
``pressure_factor`` without touching any session, forcing the state
machine through its transitions deterministically.
"""

from __future__ import annotations

from typing import List, Tuple

STATE_NORMAL = "normal"
STATE_DEGRADED = "degraded"
STATE_SHEDDING = "shedding"

#: Budget fill fractions that drive the state machine above.
DEGRADED_WATERMARK = 0.7
SHED_WATERMARK = 0.9
RECOVER_WATERMARK = 0.5


class _Tracked:
    __slots__ = ("deadline", "order", "session")

    def __init__(self, deadline: float, order: int, session) -> None:
        self.deadline = deadline
        self.order = order
        self.session = session


class LoadShedder:
    """Global memory budget + deadline shedding across sessions."""

    def __init__(self, budget_bytes: int, *, session_deadline: float = 30.0) -> None:
        self.budget_bytes = budget_bytes
        self.session_deadline = session_deadline
        #: Fault hook (``memory_pressure``): scales the effective budget.
        self.pressure_factor = 1.0
        self.state = STATE_NORMAL
        #: (time, from_state, to_state) edges, "recovered" included.
        self.transitions: List[Tuple[float, str, str]] = []
        self._tracked: List[_Tracked] = []
        self._order = 0
        #: Sessions dropped by shedding (``AdmissionController.counts()``
        #: reports it as ``shed_sessions``).
        self._shed_total = 0

    # -- tracking ----------------------------------------------------------

    def track(self, session, now: float) -> None:
        """Admit one session into the budget with its shed deadline."""
        self._tracked.append(
            _Tracked(now + self.session_deadline, self._order, session)
        )
        self._order += 1

    def tracked_count(self) -> int:
        return len(self._tracked)

    def effective_budget(self) -> int:
        return max(1, int(self.budget_bytes * self.pressure_factor))

    def memory_bytes(self) -> int:
        """Bytes pinned by every live tracked session (closed pruned)."""
        alive = [t for t in self._tracked if not t.session.session_closed]
        if len(alive) != len(self._tracked):
            self._tracked = alive
        return sum(t.session.session_memory_bytes() for t in alive)

    # -- the state machine -------------------------------------------------

    def observe(self, now: float) -> str:
        """Refresh state from the current fill; shed if required.

        Called inline on every admission decision and from the world's
        maintenance tick — there is no standing timer, so an idle
        simulation still drains.
        """
        memory = self.memory_bytes()
        budget = self.effective_budget()
        fill = memory / budget
        if fill >= SHED_WATERMARK:
            self._transition(now, STATE_SHEDDING)
            memory = self._shed_to_recover(now, memory, budget)
            fill = memory / budget
        elif fill >= DEGRADED_WATERMARK:
            if self.state != STATE_SHEDDING:
                self._transition(now, STATE_DEGRADED)
        if fill <= RECOVER_WATERMARK and self.state != STATE_NORMAL:
            self._transition(now, STATE_NORMAL)
        return self.state

    def _transition(self, now: float, to_state: str) -> None:
        if self.state == to_state:
            return
        self.transitions.append((now, self.state, to_state))
        self.state = to_state

    def _shed_to_recover(self, now: float, memory: int, budget: int) -> int:
        """Drop oldest-deadline-first until under the recover watermark."""
        target = int(budget * RECOVER_WATERMARK)
        while memory > target and self._tracked:
            victim = min(self._tracked, key=lambda t: (t.deadline, t.order))
            self._tracked.remove(victim)
            freed = victim.session.session_memory_bytes()
            self.shed_session(victim.session)
            memory -= freed
        return max(0, memory)

    def shed_session(self, session) -> None:
        """Drop one session (crash model: peers learn from RSTs)."""
        if not session.session_closed:
            session.crash()
        self._shed_total += 1

    def shed_count(self) -> int:
        return self._shed_total
