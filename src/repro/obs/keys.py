"""Central registry of telemetry component and metric key names.

Every string that names a telemetry component, counter, gauge, or
histogram lives here.  Instrumented code imports the constant instead of
repeating the literal, so a key can never silently fork into two
spellings ("decode.rejected" here, "decode_rejected" there) and every
reader of a snapshot can rely on one canonical vocabulary.

A key exists only for a fact no other store holds (DESIGN 4b).  Failover
outcomes are session events on ``EventDispatcher.timeline``; resumption
outcomes are ``TlsSession``'s flags; delivered stream bytes are
``TcplsConnection.bytes_delivered``; buffered memory is
``TcplsSession.session_memory_bytes()``; pool counts are
``SessionPool.stats()``; recovery times are ``RecoveryResult.ttr``.

The OBS001 lint rule (``repro.analysis``) enforces this: a string
literal passed directly to ``Telemetry.counter``/``gauge``/``histogram``
anywhere in ``src/`` is a finding — call sites must reference a constant
(or a helper) from this module.

The one dynamic family, per-link components, comes from
:func:`link_component`.
"""

from __future__ import annotations

# -- components ---------------------------------------------------------------

COMP_SESSION_CLIENT = "session.client"
COMP_SESSION_SERVER = "session.server"
#: The TCPLS listener (pre-session demux, JOIN routing).
COMP_SERVER = "server"
#: Tracer points holding ``TCP_INFO`` snapshots (repro.obs.tcpinfo).
COMP_TCP = "tcp"
#: The reconnect-storm recovery driver (repro.scale.recovery).
COMP_RECOVERY = "scale.recovery"
#: Admission control / load shedding (repro.overload).
COMP_OVERLOAD = "overload"
#: Prefix for per-link components (see :func:`link_component`).
LINK_COMPONENT_PREFIX = "link"


def session_component(is_server: bool) -> str:
    """The per-role session component name."""
    return COMP_SESSION_SERVER if is_server else COMP_SESSION_CLIENT


def link_component(name: str) -> str:
    """Per-link component: ``link.<name>`` (bare ``link`` when unnamed)."""
    return f"{LINK_COMPONENT_PREFIX}.{name}" if name else LINK_COMPONENT_PREFIX


# -- session metrics ----------------------------------------------------------

RECORD_BYTES = "record_bytes"
#: Rejected wire decodes (fail-closed parser contract, PR 4).
DECODE_REJECTED = "decode.rejected"
#: Tripped resource-exhaustion guards (stream/reassembly/rate caps, PR 4).
GUARD_TRIPPED = "guard.tripped"
#: Per-stream flow control (credit windows, PR 9).
FLOW_STALLS = "flow.stalls"
FLOW_WINDOW_UPDATES_SENT = "flow.window_updates_sent"
FLOW_WINDOW_UPDATES_RECEIVED = "flow.window_updates_received"
#: A peer wrote past the credit it was granted (fail-closed).
FLOW_VIOLATIONS = "flow.violations"

# -- recovery metrics ---------------------------------------------------------

#: Sessions re-established after a server crash.
RECOVERY_RECONNECTS = "reconnects"

# -- overload metrics ---------------------------------------------------------
# Every shed/reject code path in ``repro.overload`` must increment one
# of these (enforced by the REL001 lint rule).

#: Connections admitted at full handshake cost.
OVERLOAD_ADMITTED = "overload.admitted"
#: Connections admitted on the cheap path (resumption, JOIN, coupon).
OVERLOAD_ADMITTED_CHEAP = "overload.admitted_cheap"
#: Connections rejected because the accept queue was full.
OVERLOAD_REJECTED_QUEUE = "overload.rejected_queue"
#: Full handshakes rejected by the handshake-CPU token bucket.
OVERLOAD_REJECTED_PACER = "overload.rejected_pacer"
#: Connections rejected by the DEGRADED/SHEDDING admission policy.
OVERLOAD_REJECTED_STATE = "overload.rejected_state"
#: Sessions dropped by deadline-based load shedding.
OVERLOAD_SHED_SESSIONS = "overload.shed_sessions"
#: Retry coupons minted for rejected clients.
OVERLOAD_COUPONS_MINTED = "overload.coupons_minted"
#: Valid retry coupons honoured on a redial.
OVERLOAD_COUPONS_ACCEPTED = "overload.coupons_accepted"
#: Gauge: shedder state (0 NORMAL, 1 DEGRADED, 2 SHEDDING).
OVERLOAD_STATE = "overload.state"
#: Gauge: bytes tracked against the global memory budget.
OVERLOAD_MEMORY_BYTES = "overload.memory_bytes"

# -- link metrics -------------------------------------------------------------

LINK_DELIVERED = "delivered"
LINK_DROPPED_QUEUE = "dropped_queue"
LINK_DROPPED_LOSS = "dropped_loss"
LINK_DROPPED_DOWN = "dropped_down"
LINK_REORDERED = "reordered"
LINK_BYTES_DELIVERED = "bytes_delivered"
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
ALL_KEYS = frozenset(
    (
        RECORD_BYTES,
        DECODE_REJECTED,
        GUARD_TRIPPED,
        FLOW_STALLS,
        FLOW_WINDOW_UPDATES_SENT,
        FLOW_WINDOW_UPDATES_RECEIVED,
        FLOW_VIOLATIONS,
        OVERLOAD_ADMITTED,
        OVERLOAD_ADMITTED_CHEAP,
        OVERLOAD_REJECTED_QUEUE,
        OVERLOAD_REJECTED_PACER,
        OVERLOAD_REJECTED_STATE,
        OVERLOAD_SHED_SESSIONS,
        OVERLOAD_COUPONS_MINTED,
        OVERLOAD_COUPONS_ACCEPTED,
        OVERLOAD_STATE,
        OVERLOAD_MEMORY_BYTES,
        RECOVERY_RECONNECTS,
        LINK_QUEUE_DEPTH,
    )
    + LINK_STATS
)
