"""Overload robustness: admission control, load shedding, stampedes.

The TCPLS paper puts streams, the secure session, and TCP state in one
context; this package defends that context when *sustained demand
exceeds capacity*.  Three layers:

- :mod:`repro.overload.admission` — accept-queue caps, cost-aware
  classification of ClientHellos (full handshake vs. cheap resumption /
  JOIN / retry-coupon), and a token-bucket pacer on handshake CPU.
- :mod:`repro.overload.shedding` — a global memory budget across every
  accepted session with deadline-based shedding (oldest deadline first)
  and the NORMAL → DEGRADED → SHEDDING → recovered state machine.
- :mod:`repro.overload.world` — a deterministic open-loop load
  generator sweeping offered load past capacity, the O1 benchmark's
  engine.

Per-stream credit flow control (the other half of overload robustness)
lives in ``repro.core``: receive windows + WINDOW_UPDATE grants in
``core/streams.py`` / ``core/session.py``; a sender's local queue is
bounded by the session memory budget (``GuardLimitExceeded``).
"""

from repro.overload.admission import (
    AdmissionConfig,
    AdmissionController,
    Decision,
    TokenBucket,
    classify_hello,
)
from repro.overload.coupons import (
    EXT_TCPLS_COUPON,
    mint_coupon,
    verify_coupon,
)
from repro.overload.shedding import (
    STATE_DEGRADED,
    STATE_NORMAL,
    STATE_SHEDDING,
    LoadShedder,
)
from repro.overload.world import (
    OverloadConfig,
    OverloadResult,
    OverloadWorld,
    run_overload,
)

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "Decision",
    "TokenBucket",
    "classify_hello",
    "EXT_TCPLS_COUPON",
    "mint_coupon",
    "verify_coupon",
    "STATE_NORMAL",
    "STATE_DEGRADED",
    "STATE_SHEDDING",
    "LoadShedder",
    "OverloadConfig",
    "OverloadResult",
    "OverloadWorld",
    "run_overload",
]
