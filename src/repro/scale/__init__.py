"""Server-farm scale: session pooling and load generation.

The paper's deployment story (section 4, "TCPLS as a server-side
library") implies one process terminating thousands of concurrent TCPLS
sessions.  This package provides that scenario on top of the
deterministic simulator:

- :mod:`repro.scale.farm` — the server farm (topology, PKI, listeners,
  responder, dial rotation) and the run loop that the load worlds here
  and in :mod:`repro.overload` share;
- :mod:`repro.scale.pool` — a scored connection pool / dispatcher that
  reuses and retires TCPLS client sessions across multiple listeners
  (health-, RTT- and load-weighted scoring);
- :mod:`repro.scale.loadgen` — a seeded arrival/departure churn
  generator that ramps thousands of sessions up and down against a
  multi-listener server farm and records per-request TTFB;
- :mod:`repro.scale.recovery` — the crash-restart reconnect storm: the
  farm dies mid-load, every client redials through jittered backoff,
  and the run is checked against the recovery-time objective and the
  exactly-once-across-restart invariant.
"""

from repro.scale.pool import PoolConfig, PooledSession, SessionPool
from repro.scale.loadgen import ScaleConfig, ScaleResult, run_scale
from repro.scale.recovery import (
    RecoveryConfig,
    RecoveryResult,
    RecoveryWorld,
    run_recovery,
)

__all__ = [
    "PoolConfig",
    "PooledSession",
    "RecoveryConfig",
    "RecoveryResult",
    "RecoveryWorld",
    "SessionPool",
    "ScaleConfig",
    "ScaleResult",
    "run_scale",
    "run_recovery",
]
