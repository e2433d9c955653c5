"""The distributions registry: histograms by component.

Counts are not here: each lives as a plain int on the object that
counts it (``TcplsSession.stats``, ``TcplsServer.stats``,
``AdmissionController.counts()``, ``Link.stats``), so switching
observation off can never blank or break a result.  What this registry
holds is the distributions no owner keeps: record sizes per session and
queue depth per link.

Design constraints (the reason this is not a thin dict wrapper):

- **cheap enough to stay on by default** — callers look a histogram up
  once (``telemetry.histogram("link.a--b", "queue_depth")``) and keep
  the returned object; the hot path is then a single ``observe``.
  When the registry is disabled every lookup returns one shared no-op
  instrument, so instrumented code needs no ``if enabled`` branches;
- **zero perturbation** — instruments only record; they never touch the
  simulator, never consume randomness, and never allocate on the hot
  path (histograms bisect into preallocated log-scaled buckets);
- **machine readable** — ``snapshot()`` returns plain nested dicts that
  serialize to JSON as they are.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Optional, Tuple, Union

# Log-scaled bucket upper bounds shared by all histograms: 1, 2, 4, ...
# 2^30.  Good enough resolution for byte sizes, counts, and (scaled)
# latencies without per-histogram configuration.
_DEFAULT_BOUNDS = tuple(1 << i for i in range(31))


class Histogram:
    """Streaming distribution: count/sum/min/max plus log-2 buckets."""

    __slots__ = ("count", "total", "min", "max", "_bounds", "_buckets")

    def __init__(self, bounds: Tuple[float, ...] = _DEFAULT_BOUNDS) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._bounds = bounds
        self._buckets = [0] * (len(bounds) + 1)

    def observe(self, value: Union[int, float]) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self._buckets[bisect_left(self._bounds, value)] += 1

    def summary(self) -> dict:
        mean = self.total / self.count if self.count else 0.0
        buckets = {
            (str(self._bounds[i]) if i < len(self._bounds) else "+inf"): n
            for i, n in enumerate(self._buckets)
            if n
        }
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": mean,
            "buckets": buckets,
        }


class _NullInstrument:
    """Shared do-nothing histogram for disabled telemetry."""

    __slots__ = ()

    def observe(self, value) -> None:
        pass


_NULL = _NullInstrument()


class Telemetry:
    """Registry of histograms keyed by ``(component, name)``.

    Histograms are created on first use and shared on later lookups, so
    two sessions of one role sharing a hub observe into the same one.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._histograms: Dict[Tuple[str, str], Histogram] = {}

    def histogram(self, component: str, name: str) -> Histogram:
        if not self.enabled:
            return _NULL  # type: ignore[return-value]
        key = (component, name)
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram()
        return instrument

    def snapshot(self) -> dict:
        """Nested ``{component: {name: summary}}`` of everything recorded."""
        out: Dict[str, dict] = {}
        for (component, name), histogram in self._histograms.items():
            out.setdefault(component, {})[name] = histogram.summary()
        return out
