"""The per-session (or shared) observability hub.

One ``Observability`` object holds the two recorders — the histogram
registry and the bounded trace timeline — around a single clock.  A
``TcplsSession`` creates its own hub by default; passing one through
``TcplsContext.observability`` makes several sessions (e.g. a server
and all the sessions it accepts) share one timeline, and passing a
disabled one (``Observability(sim, enabled=False)``) turns observation
off for every session that shares it.

Session events and counts are not here: each lives once, on the object
that owns it — events on the session's ``EventDispatcher.timeline``,
counts in ``TcplsSession.stats`` and its peers (DESIGN §4b says which
store holds what).  So a disabled hub blanks only what it recorded.

Everything here is observation only: no simulator events, no RNG.
Enabling or disabling the hub must never change a simulated outcome.
"""

from __future__ import annotations

from repro.obs.telemetry import Telemetry
from repro.obs.tracing import Tracer


class Observability:
    """Histograms + tracer, one clock."""

    def __init__(self, sim=None, enabled: bool = True) -> None:
        clock = (lambda: sim.now) if sim is not None else (lambda: 0.0)
        self.telemetry = Telemetry(enabled=enabled)
        self.tracer = Tracer(clock, enabled=enabled)

    def snapshot(self) -> dict:
        """Everything recorded so far, as plain JSON-ready dicts."""
        return {
            "histograms": self.telemetry.snapshot(),
            "timeline": self.tracer.timeline(),
            "timeline_dropped": self.tracer.dropped,
        }
