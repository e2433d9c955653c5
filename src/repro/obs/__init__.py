"""``repro.obs`` — the observability subsystem.

Every quantitative claim this reproduction makes (bandwidth
aggregation, failover continuity, cwnd-matched record sizing) needs
machine-readable numbers.  This package provides them:

- :class:`Telemetry` — histograms keyed by component (record sizes,
  link queue depth), cheap enough to stay on by default;
- :class:`Tracer` — points on the simulated-time axis (``tcp``
  snapshots, link drops and outages), correlatable with the pcap
  writer's timestamps; a session's lifecycle (handshake, JOIN,
  failover) is recorded once, on its event timeline, not here;
- :func:`sample_tcp` — a ``TCP_INFO``-style snapshot of one connection
  as a plain dict, pull-based so sampling never perturbs the
  simulation; sessions record them as ``tcp`` tracer points;
- :class:`Observability` — one hub bundling the registry and the tracer
  around one clock; ``TcplsSession.metrics()`` reads a session's hub,
  its ``stats`` and its event timeline into one document.

Counts are not observations: each lives as a plain int on the object
that counts it (``TcplsSession.stats``, ``TcplsServer.stats``,
``AdmissionController.counts()``, ``Link.stats``), so a disabled hub
cannot change or blank a result.

Invariant: instrumentation is observation only.  A simulation run with
an enabled hub and one with a disabled hub produce byte-identical
results (same goodput, same ``events_processed``, same pcap bytes).
"""

from repro.obs.hub import Observability
from repro.obs.tcpinfo import sample_tcp
from repro.obs.telemetry import Histogram, Telemetry
from repro.obs.tracing import Tracer

__all__ = [
    "Histogram",
    "Observability",
    "Telemetry",
    "Tracer",
    "sample_tcp",
]
