"""Central registry of telemetry component and metric key names.

Every string that names a telemetry component, a histogram, or a
per-link stat lives here.  Instrumented code imports the constant
instead of repeating the literal, so a key can never silently fork into
two spellings ("queue_depth" here, "queue.depth" there) and every reader
of a snapshot can rely on one canonical vocabulary.

A key exists only for a fact no other store holds (DESIGN 4b).  Counts
live on the object that counts them: a session's records, ACKs, rejects,
guard trips and flow-control events in ``TcplsSession.stats``; the
listener's rejects in ``TcplsServer.stats``; admission outcomes in
``AdmissionController.counts()``; pool counts in ``SessionPool.stats()``.
Failover outcomes are session events on ``EventDispatcher.timeline``;
resumption outcomes are ``TlsSession``'s flags; delivered stream bytes
are ``TcplsConnection.bytes_delivered``; buffered memory is
``TcplsSession.session_memory_bytes()``; recovery times are
``RecoveryResult.ttr``.  What is left are the two histograms and the
per-link stats.

The OBS001 lint rule (``repro.analysis``) enforces this: a string
literal passed directly to a ``histogram`` call (or any
``counter``/``gauge`` lookup) anywhere in ``src/`` is a finding — call
sites must reference a constant (or a helper) from this module.

The one dynamic family, per-link components, comes from
:func:`link_component`.
"""

from __future__ import annotations

# -- components ---------------------------------------------------------------

COMP_SESSION_CLIENT = "session.client"
COMP_SESSION_SERVER = "session.server"
#: Tracer points holding ``TCP_INFO`` snapshots (repro.obs.tcpinfo).
COMP_TCP = "tcp"
#: Prefix for per-link components (see :func:`link_component`).
LINK_COMPONENT_PREFIX = "link"


def session_component(is_server: bool) -> str:
    """The per-role session component name."""
    return COMP_SESSION_SERVER if is_server else COMP_SESSION_CLIENT


def link_component(name: str) -> str:
    """Per-link component: ``link.<name>`` (bare ``link`` when unnamed)."""
    return f"{LINK_COMPONENT_PREFIX}.{name}" if name else LINK_COMPONENT_PREFIX


# -- session metrics ----------------------------------------------------------

#: Histogram of sealed/opened record sizes per session role.
RECORD_BYTES = "record_bytes"

# -- link metrics -------------------------------------------------------------

LINK_DELIVERED = "delivered"
LINK_DROPPED_QUEUE = "dropped_queue"
LINK_DROPPED_LOSS = "dropped_loss"
LINK_DROPPED_DOWN = "dropped_down"
LINK_REORDERED = "reordered"
LINK_BYTES_DELIVERED = "bytes_delivered"
#: Histogram of a link's queue depth at each enqueue (``Link.observe``).
LINK_QUEUE_DEPTH = "queue_depth"

#: The per-link stat counters, in the order ``Link.stats`` reports them.
LINK_STATS = (
    LINK_DELIVERED,
    LINK_DROPPED_QUEUE,
    LINK_DROPPED_LOSS,
    LINK_DROPPED_DOWN,
    LINK_REORDERED,
    LINK_BYTES_DELIVERED,
)

# -- registry -----------------------------------------------------------------

#: Every metric key.
ALL_KEYS = frozenset((RECORD_BYTES, LINK_QUEUE_DEPTH) + LINK_STATS)
