"""The discrete-event engine at the bottom of the whole reproduction.

``Simulator`` keeps a priority queue of timestamped callbacks.  Protocol
stacks never sleep or poll; they schedule continuations.  Determinism
rules:

- ties on the timestamp are broken by insertion order (a monotonically
  increasing sequence number), so two events at the same instant always
  run in the order they were scheduled;
- all randomness used by links/middleboxes comes from ``Random`` instances
  seeded at construction.

``pending_events`` is O(1): a live counter tracks scheduled-minus-
(cancelled-or-executed) events instead of scanning the heap.  The engine
never reads the host clock; ``bench/`` times ``run()`` from outside.

``post`` is ``schedule`` for a callback nobody cancels (a link
delivery): the same (shaken) sequence number, heap key and counts, but
no ``Event`` handle: its heap entry is ``(time, seq, callback, args)``,
a scheduled one's ``(time, seq, event, None)``.

``reschedule`` moves a pending event in place (a retransmission timer
pushed back on every ACK) and gives it exactly the (time, seq) key that
``cancel()`` + ``schedule()`` would, so the execution order is the same
either way.  The heap may then hold more than one entry for an event:
its *responsible* entry, whose key ``(_heap_time, _heap_seq)`` is never
larger than the event's own, and stale ones.  Rescheduling pushes only
when the new key is smaller than the responsible entry's; ``run()``
re-pushes a popped responsible entry at the event's current key and
drops any other entry whose key is not the event's.  A stale entry is
never executed, counted or shown to the event hook.
"""

from __future__ import annotations

import heapq
from typing import Callable, Optional

from repro.utils.errors import ReentrancyError


class Event:
    """A scheduled callback; keep the handle to be able to cancel it."""

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_owner",
                 "_heap_time", "_heap_seq")

    def __init__(self, time: float, seq: int, callback: Callable, args: tuple):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._owner: Optional["Simulator"] = None
        # Key of the heap entry responsible for this event (see module doc).
        self._heap_time = time
        self._heap_seq = seq

    @property
    def pending(self) -> bool:
        """Scheduled and neither executed nor cancelled yet."""
        return self._owner is not None

    def cancel(self) -> None:
        """Prevent the callback from running; safe to call more than once.

        Also safe after the event already fired or was discarded: the
        engine clears ``_owner`` when it consumes the event, so a late
        cancel (a stale RTO handle kept across teardown, say) cannot
        decrement the live-event counter a second time.
        """
        if not self.cancelled:
            self.cancelled = True
            if self._owner is not None:
                self._owner._live_events -= 1
                self._owner = None


class Simulator:
    """A single-threaded discrete-event loop with float-seconds time."""

    # Absolute-time scheduling tolerance: a target computed as
    # ``now + rtt - elapsed`` can land one float ulp before ``now``;
    # deltas smaller than a nanosecond are clock noise, not the past.
    TIME_EPSILON = 1e-9

    def __init__(self) -> None:
        self.now: float = 0.0
        # Pending events as a heap of the tuples above; seq is unique, so
        # the C-level tuple comparison never reaches the third item.
        self._queue: list = []
        self._seq = 0
        self._events_processed = 0
        self._live_events = 0  # scheduled minus cancelled/executed
        self._event_hook: Optional[Callable[[float, int], None]] = None
        self._shake_key: Optional[int] = None
        self._running = False  # reentrancy sanitizer: inside run()?

    def attach_event_hook(self, hook: Optional[Callable[[float, int], None]]) -> None:
        """Observe every executed event as ``hook(time, seq)``.

        Pure observation for the determinism sanitizer: the hook sees the
        exact (time, seq) execution order and must not touch the engine.
        """
        self._event_hook = hook

    def enable_schedule_shake(self, seed: int) -> None:
        """Perturb equal-time tie-break order, deterministically per seed.

        Replaces the insertion sequence number with a bijection of it
        (xor + odd multiply in 32 bits), so events at the same timestamp
        execute in a *different but reproducible* order.  Two runs under
        the same shake seed must still match bit-for-bit; code whose
        behaviour leaks the arbitrary tie order is flushed out by
        comparing digests across *different* shake seeds.  Must be called
        before anything is scheduled.
        """
        if self._seq or self._queue:
            raise ValueError("schedule shake must be enabled before scheduling")
        self._shake_key = seed & 0xFFFFFFFF

    @property
    def events_processed(self) -> int:
        return self._events_processed

    def schedule(self, delay: float, callback: Callable, *args) -> Event:
        """Run ``callback(*args)`` after ``delay`` seconds of simulated time."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        seq = self._seq
        if self._shake_key is not None:
            # Deterministic bijection on 32 bits: same seed -> same shaken
            # order, different seed -> different equal-time tie-breaks.
            seq = ((seq ^ self._shake_key) * 0x9E3779B1) & 0xFFFFFFFF
        event = Event(self.now + delay, seq, callback, args)
        event._owner = self
        heapq.heappush(self._queue, (event.time, seq, event, None))
        self._seq += 1
        self._live_events += 1
        return event

    def post(self, delay: float, callback: Callable, *args) -> None:
        """``schedule`` with no handle to cancel or move (module doc)."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        seq = self._seq
        if self._shake_key is not None:
            seq = ((seq ^ self._shake_key) * 0x9E3779B1) & 0xFFFFFFFF
        heapq.heappush(self._queue, (self.now + delay, seq, callback, args))
        self._seq += 1
        self._live_events += 1

    def schedule_at(self, time: float, callback: Callable, *args) -> Event:
        """Run ``callback`` at an absolute simulated time.

        A target equal to ``now`` may subtract to a tiny negative delta
        (one ulp) after float arithmetic; clamp anything smaller than
        ``TIME_EPSILON`` to zero instead of crashing a deterministic
        replay.  Genuinely past times still raise.
        """
        delay = time - self.now
        if -self.TIME_EPSILON < delay < 0:
            delay = 0.0
        return self.schedule(delay, callback, *args)

    def reschedule(self, event: Event, delay: float) -> None:
        """Move a pending ``event`` to run ``delay`` seconds from now.

        Equivalent to ``event.cancel()`` followed by ``schedule()`` of the
        same callback — it takes the next (shaken) sequence number — but
        keeps the handle and pushes a heap entry only when the new key is
        smaller than the one the event already holds in the heap.
        """
        if event._owner is not self:
            raise ValueError("only a pending event of this simulator can be rescheduled")
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        seq = self._seq
        if self._shake_key is not None:
            seq = ((seq ^ self._shake_key) * 0x9E3779B1) & 0xFFFFFFFF
        self._seq += 1
        time = self.now + delay
        event.time = time
        event.seq = seq
        if time < event._heap_time or (time == event._heap_time and seq < event._heap_seq):
            event._heap_time = time
            event._heap_seq = seq
            heapq.heappush(self._queue, (time, seq, event, None))

    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> None:
        """Process events in order until the queue drains or ``until`` passes.

        When ``until`` is given, the clock is left exactly at ``until`` even
        if the queue drained earlier, so follow-up scheduling is intuitive.
        """
        if self._running:
            raise ReentrancyError(
                "Simulator.run() re-entered from inside an event handler; "
                "schedule a continuation instead"
            )
        self._running = True
        processed = 0
        queue = self._queue
        heappop = heapq.heappop
        event_hook = self._event_hook
        try:
            while queue:
                entry = queue[0]
                if until is not None and entry[0] > until:
                    break
                args = entry[3]
                if args is None:
                    event = entry[2]
                    if event.seq != entry[1] or event._owner is None:
                        # Cancelled, already executed, or rescheduled
                        # since this entry was pushed: hand a responsible
                        # entry on to the event's current key, drop any
                        # other.
                        if event._owner is not None and entry[1] == event._heap_seq:
                            event._heap_time = event.time
                            event._heap_seq = event.seq
                            heapq.heapreplace(queue, (event.time, event.seq, event, None))
                        else:
                            heappop(queue)
                        continue
                # Check the cap BEFORE popping: the event that trips it
                # must stay queued so a follow-up run() resumes without
                # losing it.
                if processed >= max_events:
                    raise RuntimeError(
                        f"simulation exceeded {max_events} events; likely a loop"
                    )
                heappop(queue)
                if args is None:
                    event._owner = None
                    callback, args = event.callback, event.args
                else:
                    callback = entry[2]
                self._live_events -= 1
                self.now = entry[0]
                if event_hook is not None:
                    event_hook(entry[0], entry[1])
                callback(*args)
                processed += 1
                self._events_processed += 1
        finally:
            self._running = False
        if until is not None and until > self.now:
            self.now = until

    def run_until_idle(self, max_events: int = 50_000_000) -> None:
        """Drain the queue completely."""
        self.run(until=None, max_events=max_events)

    def pending_events(self) -> int:
        """Live (scheduled, not cancelled, not yet executed) events — O(1)."""
        return self._live_events
