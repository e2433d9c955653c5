"""The per-session (or shared) observability hub.

One ``Observability`` object bundles the three recorders — metrics
registry, trace timeline, TCP snapshot log — around a single clock.  A
``TcplsSession`` creates its own hub by default; passing one through
``TcplsContext.observability`` makes several sessions (e.g. a server
and all the sessions it accepts) share one session-wide timeline.

Everything here is observation only: no simulator events, no RNG.
Enabling or disabling the hub must never change a simulated outcome.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.tcpinfo import TcpInfoLog
from repro.obs.telemetry import Telemetry
from repro.obs.tracing import Tracer


class Observability:
    """Telemetry + tracer + TCP snapshot log, one clock."""

    def __init__(self, sim=None, enabled: bool = True) -> None:
        self.sim = sim
        self.enabled = enabled
        clock = (lambda: sim.now) if sim is not None else (lambda: 0.0)
        self.telemetry = Telemetry(enabled=enabled)
        self.tracer = Tracer(clock, enabled=enabled)
        self.tcp_log = TcpInfoLog(clock, enabled=enabled)

    def snapshot(self) -> dict:
        """Everything recorded so far, as plain JSON-ready dicts."""
        return {
            "counters": self.telemetry.snapshot(),
            "timeline": self.tracer.timeline(),
            "tcp_samples": self.tcp_log.samples(),
            "timeline_dropped": self.tracer.dropped,
            "tcp_samples_dropped": self.tcp_log.dropped,
        }
