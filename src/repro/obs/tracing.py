"""Trace points on the simulated-time axis.

The tracer shares the discrete-event engine's clock, so every record is
directly correlatable with the pcap files ``repro.netsim.pcap`` writes:
a ``tcp`` snapshot at ``t=0.054`` shows the connection's state as of
the packets Wireshark shows up to that timestamp.

A record is a **point**: an instant event (a ``tcp`` snapshot, a link's
drop or outage), stamped with the current simulated time.  Intervals
(a handshake, a JOIN round trip, a reconnect episode) are not traced:
their ends are instants of the session's own event timeline
(``EventDispatcher.timeline``), which records them once.

Points are plain dicts so the timeline serializes to JSON untouched.
"""

from __future__ import annotations

from typing import Callable, List

_SCALARS = (int, float, str, bool, type(None))


def scrub_attrs(attrs: dict) -> dict:
    """Keep only JSON-friendly attribute values (scalars and flat lists)."""
    out = {}
    for key, value in attrs.items():
        if isinstance(value, _SCALARS):
            out[key] = value
        elif isinstance(value, (list, tuple)) and all(
            isinstance(item, _SCALARS) for item in value
        ):
            out[key] = list(value)
    return out


class Tracer:
    """Timeline recorder driven by an external clock (the simulator's)."""

    def __init__(
        self,
        clock: Callable[[], float],
        enabled: bool = True,
        max_records: int = 200_000,
    ) -> None:
        self.now = clock
        self.enabled = enabled
        self.max_records = max_records
        self.dropped = 0
        self._records: List[dict] = []

    def point(self, component: str, name: str, **attrs) -> None:
        """Record an instant event at the current simulated time."""
        if not self.enabled:
            return
        if len(self._records) >= self.max_records:
            self.dropped += 1
            return
        self._records.append(
            {
                "t": self.now(),
                "component": component,
                "event": name,
                **scrub_attrs(attrs),
            }
        )

    def timeline(self) -> List[dict]:
        """All records in time order: each point is stamped with the
        simulated time it is appended at, so append order is time order."""
        return list(self._records)

    def events_named(self, name: str) -> List[dict]:
        return [record for record in self._records if record["event"] == name]

    def __len__(self) -> int:
        return len(self._records)
