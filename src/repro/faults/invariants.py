"""Recovery invariants: what must hold no matter which faults fired.

The checker replays a finished scenario from three sources of truth —
the bytes the application handed to ``send()``, a
:class:`DeliveryRecorder` that captured everything the receiving session
surfaced, and the receiving session's own event timeline — and asserts
the TCPLS robustness contract:

* **No app-visible data loss**: every stream's delivered bytes equal the
  sent bytes, byte for byte (unless the session abandoned, in which case
  the abandonment must have been surfaced as a terminal
  ``SESSION_DEGRADED``).
* **No duplicate delivery past the ReceiveTracker**: the tracker never
  accepts the same session seq twice (checked live by
  :class:`TrackerAudit`).
* **Monotone stream offsets**: deliveries per stream are in-order and
  contiguous — chunk timestamps never regress and total delivered length
  matches the stream's own ``bytes_received``.
* **Bounded recovery**: every ``SESSION_RECOVERED`` downtime is within
  the worst case implied by the backoff schedule
  (:func:`max_recovery_time`), and a non-terminal degradation never goes
  unrecovered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core import recovery
from repro.core.events import Event


class DeliveryRecorder:
    """Captures everything a session's app callbacks deliver.

    Installs itself as ``on_stream_data``/``on_stream_fin``; keeps per
    stream the reassembled bytes and a chunk log ``(time, offset, len)``
    for the monotonicity check.
    """

    def __init__(self, session) -> None:
        self.session = session
        self.data: Dict[int, bytearray] = {}
        self.chunks: Dict[int, list] = {}
        self.fins: List[int] = []
        session.on_stream_data = self._on_data
        session.on_stream_fin = self._on_fin

    def _on_data(self, stream_id: int, data: bytes) -> None:
        buffer = self.data.setdefault(stream_id, bytearray())
        self.chunks.setdefault(stream_id, []).append(
            (self.session.sim.now, len(buffer), len(data))
        )
        buffer.extend(data)

    def _on_fin(self, stream_id: int) -> None:
        self.fins.append(stream_id)

    def bytes_for(self, stream_id: int) -> bytes:
        return bytes(self.data.get(stream_id, b""))


class TrackerAudit:
    """Live watchdog on a ReceiveTracker: records every seq it *accepts*.

    The tracker's contract is that a seq is accepted at most once; the
    audit proves it held over the whole run rather than trusting the
    implementation (``duplicate_accepts`` stays 0 or the invariant
    checker fails the scenario).
    """

    def __init__(self, tracker) -> None:
        self.tracker = tracker
        self.accepted: set = set()
        self.duplicate_accepts = 0
        self.total_accepts = 0
        self._original_accept = tracker.accept
        tracker.accept = self._accept

    def _accept(self, seq: int) -> bool:
        ok = self._original_accept(seq)
        if ok and seq != 0:
            self.total_accepts += 1
            if seq in self.accepted:
                self.duplicate_accepts += 1
            self.accepted.add(seq)
        return ok


def max_recovery_time(attempts: Optional[int] = None, slack: float = 0.5) -> float:
    """Worst-case seconds from DEGRADED to RECOVERED.

    Upper bound from ``core.recovery``'s constants: each attempt may burn
    a full ``JOIN_TIMEOUT`` before failing, and each retry waits the
    capped exponential backoff at maximal jitter.  ``slack`` absorbs
    handshake RTTs and scheduler quantisation.
    """
    if attempts is None:
        attempts = recovery.RECONNECT_MAX_RETRIES
    total = 0.0
    for attempt in range(1, attempts + 1):
        delay = min(
            recovery.RECONNECT_BACKOFF_BASE * 2 ** (attempt - 1),
            recovery.RECONNECT_BACKOFF_MAX,
        )
        total += delay * (1.0 + recovery.RECONNECT_BACKOFF_JITTER)
    return total + attempts * recovery.JOIN_TIMEOUT + slack


def recovery_spans(session) -> dict:
    """Degradation episodes from the session's event timeline.

    Returns ``{"recovered": [(start, end, downtime)], "open": [...],
    "terminal": [...]}`` — ``open`` are non-terminal degradations with no
    matching recovery (an invariant violation at end of run), ``terminal``
    are explicit abandonments (allowed, but must be intentional).
    """
    recovered, open_spans, terminal = [], [], []
    start: Optional[float] = None
    for when, event, kwargs in session.events.timeline:
        if event == Event.SESSION_DEGRADED:
            if kwargs.get("terminal"):
                terminal.append((when, kwargs.get("reason")))
                start = None
            elif start is None:
                start = when
        elif event == Event.SESSION_RECOVERED and start is not None:
            recovered.append((start, when, when - start))
            start = None
    if start is not None:
        open_spans.append((start, session.sim.now))
    return {"recovered": recovered, "open": open_spans, "terminal": terminal}


@dataclass
class InvariantReport:
    """Outcome of :func:`check_invariants`; falsy when anything failed."""

    violations: List[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok

    def assert_ok(self) -> None:
        if self.violations:
            raise AssertionError(
                "invariant violations:\n  " + "\n  ".join(self.violations)
            )


def check_invariants(
    sent: Dict[int, bytes],
    recorder: DeliveryRecorder,
    session,
    audit: Optional[TrackerAudit] = None,
    allow_terminal: bool = False,
    slack: float = 0.5,
) -> InvariantReport:
    """Check the robustness contract for one finished scenario.

    ``sent`` maps stream id to the exact bytes the application wrote;
    ``session`` is the *receiving* session (its timeline and streams are
    inspected); ``allow_terminal`` accepts runs where the session intentionally
    abandoned (cookie exhaustion tests) — data-loss checks are skipped
    for those.
    """
    report = InvariantReport()
    spans = recovery_spans(session)
    report.details["recovery"] = spans
    terminal = bool(spans["terminal"])

    if terminal and not allow_terminal:
        report.violations.append(
            f"session abandoned ({spans['terminal']}) but the scenario "
            "expected full recovery"
        )

    # 1. No app-visible data loss (unless legitimately abandoned).
    if not terminal:
        for stream_id, payload in sent.items():
            got = recorder.bytes_for(stream_id)
            if got != payload:
                prefix = _common_prefix(got, payload)
                report.violations.append(
                    f"stream {stream_id}: delivered {len(got)} bytes vs "
                    f"{len(payload)} sent (first divergence at offset {prefix})"
                )

    # 2. No duplicate delivery past the ReceiveTracker.
    if audit is not None:
        report.details["accepted_seqs"] = audit.total_accepts
        if audit.duplicate_accepts:
            report.violations.append(
                f"ReceiveTracker accepted {audit.duplicate_accepts} "
                "duplicate seq(s)"
            )
    report.details["tracker"] = {
        "cumulative": session.tracker.cumulative,
        "duplicates": session.tracker.duplicates,
        "rejected_window": session.tracker.rejected_window,
    }

    # 3. Monotone, contiguous per-stream delivery.
    for stream_id, chunks in recorder.chunks.items():
        last_time, next_offset = -1.0, 0
        for when, offset, length in chunks:
            if when < last_time:
                report.violations.append(
                    f"stream {stream_id}: delivery time regressed "
                    f"({when} after {last_time})"
                )
                break
            if offset != next_offset:
                report.violations.append(
                    f"stream {stream_id}: non-contiguous delivery at "
                    f"offset {offset} (expected {next_offset})"
                )
                break
            last_time, next_offset = when, offset + length
        stream = session.streams.get(stream_id)
        if stream is not None and stream.bytes_received != next_offset:
            report.violations.append(
                f"stream {stream_id}: stream counted "
                f"{stream.bytes_received} bytes but app saw {next_offset}"
            )

    # 4. Recovery bounded by the backoff schedule.
    if spans["open"]:
        report.violations.append(
            f"{len(spans['open'])} degradation(s) never recovered: "
            f"{spans['open']}"
        )
    bound = max_recovery_time(slack=slack)
    report.details["recovery_bound"] = bound
    for start, end, downtime in spans["recovered"]:
        if downtime > bound:
            report.violations.append(
                f"recovery at t={end:.3f} took {downtime:.3f}s "
                f"(> bound {bound:.3f}s)"
            )
    return report


def _common_prefix(a: bytes, b: bytes) -> int:
    limit = min(len(a), len(b))
    for index in range(limit):
        if a[index] != b[index]:
            return index
    return limit


# -- reconnect storms ---------------------------------------------------------


def max_storm_recovery_time(pool_config, *, outage: float,
                            detect_delay: float, slack: float = 1.0) -> float:
    """Recovery-time objective for a reconnect storm through a restart.

    Worst case for one client: it learns of the crash ``detect_delay``
    seconds after the crash instant (its next send drawing an RST), then
    its unluckiest redial lands *just* before the listener returns — so
    it waits out the remaining ``outage`` — and its final redial sits
    behind one full, maximally-jittered backoff cap.  ``slack`` absorbs
    the successful handshake plus request/response RTTs.

    Duck-typed on the pool config's ``redial_backoff_*`` fields so this
    module stays import-independent of :mod:`repro.scale`.
    """
    worst_backoff = pool_config.redial_backoff_max * (
        1.0 + pool_config.redial_backoff_jitter
    )
    return detect_delay + outage + worst_backoff + slack


def check_reconnect_storm(*, crash_at: float, bound: float,
                          clients: int, recovered_at: Dict[int, float],
                          sent: Dict[int, int], applied: Dict[int, int],
                          failed: int = 0) -> InvariantReport:
    """The reconnect-storm contract after a server crash/restart.

    * every one of ``clients`` re-establishes: ``recovered_at`` holds a
      post-crash recovery instant per client id;
    * each recovery lands within ``bound`` seconds of ``crash_at`` (the
      recovery-time objective from :func:`max_storm_recovery_time`);
    * exactly-once across the restart boundary: every request id in
      ``sent`` was applied exactly once (``applied`` counts per rid), and
      nothing was applied that was never sent;
    * no request failed permanently (``failed`` is the count of requests
      whose retry budget ran out).
    """
    report = InvariantReport()
    report.details["clients"] = clients
    report.details["bound"] = bound
    for client in range(clients):
        when = recovered_at.get(client)
        if when is None:
            report.violations.append(
                f"client {client} never re-established after the crash"
            )
            continue
        took = when - crash_at
        if took > bound:
            report.violations.append(
                f"client {client} recovered in {took:.3f}s "
                f"(> RTO bound {bound:.3f}s)"
            )
    for rid, count in sorted(applied.items()):
        if rid not in sent:
            report.violations.append(
                f"request {rid:#x} applied but never sent (phantom)"
            )
        elif count != 1:
            report.violations.append(
                f"request {rid:#x} applied {count} times (exactly-once broken)"
            )
    for rid in sorted(sent):
        if applied.get(rid, 0) == 0:
            report.violations.append(
                f"request {rid:#x} sent but never applied (lost)"
            )
    if failed:
        report.violations.append(
            f"{failed} requests failed permanently during the storm"
        )
    times = sorted(when - crash_at for when in recovered_at.values())
    if times:
        report.details["ttr_max"] = times[-1]
        report.details["ttr_p50"] = times[len(times) // 2]
    return report
