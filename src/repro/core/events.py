"""TCPLS event callbacks.

The paper's API (section 2.4, Figure 3): "The application may configure
callbacks to connection events that would occur within TCPLS, such as a
connection establishment, a stream attachment, a multipath join, the
reception of a TCP option to tune TCP, and more."
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional


class Event:
    """Event names deliverable to application callbacks."""

    CONN_ESTABLISHED = "conn_established"
    CONN_FAILED = "conn_failed"
    CONN_CLOSED = "conn_closed"
    HANDSHAKE_DONE = "handshake_done"
    JOIN = "join"
    STREAM_OPENED = "stream_opened"
    STREAM_ATTACHED = "stream_attached"
    STREAM_CLOSED = "stream_closed"
    TCP_OPTION_RECEIVED = "tcp_option_received"
    ADDRESS_ADVERTISED = "address_advertised"
    ADDRESS_REMOVED = "address_removed"
    PLUGIN_INSTALLED = "plugin_installed"
    PROBE_REPORT = "probe_report"
    SESSION_CLOSED = "session_closed"
    FAILOVER = "failover"
    MIGRATION_DONE = "migration_done"
    TICKET = "ticket"
    # Robustness lifecycle (fault injection & recovery): a session loses
    # path redundancy or all connectivity (DEGRADED), a reconnection
    # attempt is scheduled (CONN_RETRY), connectivity comes back
    # (RECOVERED).  ``terminal=True`` on SESSION_DEGRADED means recovery
    # was abandoned (cookie or retry budget exhausted).
    SESSION_DEGRADED = "session_degraded"
    SESSION_RECOVERED = "session_recovered"
    CONN_RETRY = "conn_retry"

    ALL = (
        CONN_ESTABLISHED, CONN_FAILED, CONN_CLOSED, HANDSHAKE_DONE, JOIN,
        STREAM_OPENED, STREAM_ATTACHED, STREAM_CLOSED, TCP_OPTION_RECEIVED,
        ADDRESS_ADVERTISED, ADDRESS_REMOVED, PLUGIN_INSTALLED, PROBE_REPORT,
        SESSION_CLOSED,
        FAILOVER, MIGRATION_DONE, TICKET,
        SESSION_DEGRADED, SESSION_RECOVERED, CONN_RETRY,
    )


class EventDispatcher:
    """Per-session registry of application callbacks, and the session's
    one record of the events it emitted."""

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self._handlers: Dict[str, List[Callable]] = {}
        # Observability tap: called as observer(event, kwargs) before the
        # application handlers for every emission.  Recording only — it
        # must never mutate session state or schedule simulator events.
        self.observer: Optional[Callable[[str, dict], None]] = None
        # The session's clock (e.g. ``lambda: sim.now``; 0.0 without
        # one).  Every emission is appended to ``timeline`` as (time,
        # event, kwargs): the one history of a session's events, which
        # the fault-injection invariant checker replays to bound
        # recovery times and ``TcplsSession.metrics()`` exports.
        self.clock = clock
        self.timeline: List[tuple] = []

    def on(self, event: str, handler: Callable) -> None:
        if event not in Event.ALL:
            raise ValueError(f"unknown event {event!r}")
        self._handlers.setdefault(event, []).append(handler)

    def off(self, event: str, handler: Callable) -> bool:
        """Deregister one handler; True if it was registered.

        One-shot protocol handlers (failover's on-JOIN continuation,
        migration chains) must deregister once they fire or are
        abandoned, otherwise every failover leaks a handler that can
        re-trigger stale replays on later JOINs.
        """
        handlers = self._handlers.get(event)
        if handlers is None or handler not in handlers:
            return False
        handlers.remove(handler)
        return True

    def handler_count(self, event: str) -> int:
        return len(self._handlers.get(event, []))

    def emit(self, event: str, **kwargs) -> None:
        now = self.clock() if self.clock is not None else 0.0
        self.timeline.append((now, event, kwargs))
        if self.observer is not None:
            self.observer(event, kwargs)
        # Snapshot: a handler may (de)register handlers while firing.
        for handler in list(self._handlers.get(event, [])):
            handler(**kwargs)

    def events_named(self, event: str) -> List[dict]:
        return [kw for _t, name, kw in self.timeline if name == event]
