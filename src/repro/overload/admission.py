"""Cost-aware admission control for a TCPLS listener under overload.

Three gates, cheapest first:

1. **Accept-queue cap** — connections sniffed but not yet routed are
   bounded; past the cap a SYN-stamping stampede is refused before we
   buffer a single record.
2. **State policy** — while the shedder reports DEGRADED, new *full*
   handshakes are refused (they are the expensive thing) but cheap
   classes (resumption, JOIN, retry-coupon) still land; in SHEDDING
   everything new is refused.
3. **Token-bucket pacer** — handshake CPU is the scarce resource, so
   admissions draw tokens proportional to their cost: a full handshake
   pays 1.0, a resumption ~a tenth (one HMAC + no certificate chain),
   a JOIN even less.  The bucket rate *is* the capacity the O1
   benchmark sweeps offered load against.

Refused full handshakes get a sealed retry coupon
(:mod:`repro.overload.coupons`): the redial presents it in the
ClientHello and classifies as cheap — clients that already waited are
preferred over fresh arrivals, which keeps the goodput curve flat past
saturation instead of collapsing into redial storms.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from repro.overload.coupons import (
    EXT_TCPLS_COUPON,
    mint_coupon,
    verify_coupon,
)
from repro.overload.shedding import (
    STATE_DEGRADED,
    STATE_SHEDDING,
    LoadShedder,
)
from repro.tls import messages as m

#: Admission classes, cheapest to dearest.
KIND_JOIN = "join"
KIND_RESUMPTION = "resumption"
KIND_COUPON = "coupon"
KIND_FULL = "full"

#: Handshake-bucket tokens one admission of each class takes.
TOKEN_COST = {
    KIND_FULL: 1.0,
    KIND_RESUMPTION: 0.1,
    KIND_JOIN: 0.05,
    KIND_COUPON: 0.1,
}

#: Retry-coupon sealing key: coupons only need to verify at the farm
#: that minted them.
COUPON_KEY = b"repro-overload-coupon-key"


@dataclass
class AdmissionConfig:
    """Knobs for one listener group's admission policy."""

    #: Max connections sniffed-but-unrouted across the group.
    accept_queue: int = 64
    #: Token-bucket rate: full handshakes per second the farm can chew.
    handshake_rate: float = 200.0
    #: Bucket depth: tolerated burst above the sustained rate.
    handshake_burst: float = 20.0
    #: Global memory budget across every admitted session.
    global_memory_budget: int = 64 << 20
    #: Seconds from admission to shed-eligibility deadline.
    session_deadline: float = 30.0
    #: Retry-coupon validity window.
    coupon_lifetime: float = 5.0
    seed: int = 0


@dataclass
class Decision:
    """One admission verdict."""

    admitted: bool
    kind: str
    reason: str = ""
    #: Sealed retry coupon for a refused full handshake.
    coupon: bytes = b""


class TokenBucket:
    """Sim-clock token bucket with lazy refill (no standing timer)."""

    __slots__ = ("clock", "rate", "burst", "tokens", "_last")

    def __init__(self, clock, rate: float, burst: float) -> None:
        self.clock = clock
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self._last = clock()

    def _refill(self) -> None:
        now = self.clock()
        if now > self._last:
            self.tokens = min(self.burst, self.tokens + (now - self._last) * self.rate)
            self._last = now

    def take(self, cost: float) -> bool:
        self._refill()
        if self.tokens >= cost:
            self.tokens -= cost
            return True
        return False

    def available(self) -> float:
        self._refill()
        return self.tokens


def classify_hello(hello: Optional["m.ClientHello"]) -> str:
    """Cheap-vs-dear classification from the parsed ClientHello.

    A PSK offer means resumption: no certificate chain, no signature —
    roughly an order of magnitude cheaper for the server, which is why
    admission prefers it under pressure.  Anything unparseable is a
    full handshake (pessimal class, fail-closed).
    """
    if hello is None:
        return KIND_FULL
    if m.get_extension(hello.extensions, m.EXT_PRE_SHARED_KEY) is not None:
        return KIND_RESUMPTION
    return KIND_FULL


class AdmissionController:
    """Admission policy + shedding for a group of TCPLS listeners.

    One controller is shared by every listener of a farm so the accept
    queue, the pacer, and the memory budget are *global* — per-listener
    controllers would let an attacker multiply the budget by the
    listener count.
    """

    def __init__(self, sim, config: Optional[AdmissionConfig] = None) -> None:
        self.sim = sim
        self.config = config or AdmissionConfig()
        self.rng = random.Random(self.config.seed)
        self.bucket = TokenBucket(
            lambda: sim.now,
            self.config.handshake_rate,
            self.config.handshake_burst,
        )
        self.shedder = LoadShedder(
            self.config.global_memory_budget, session_deadline=self.config.session_deadline
        )
        # Every admission outcome, counted where it is decided; the
        # shedder counts its own drops (``counts()`` joins the two).
        self._counts = dict.fromkeys(
            (
                "admitted",
                "admitted_cheap",
                "rejected_queue",
                "rejected_pacer",
                "rejected_state",
                "coupons_minted",
                "coupons_accepted",
            ),
            0,
        )

    # -- gates -------------------------------------------------------------

    def admit_connection(self, pending_depth: int) -> bool:
        """Gate 1, at SYN-accept time: bounded accept queue."""
        if pending_depth >= self.config.accept_queue:
            return self.reject_queue()
        return True

    def admit_hello(self, hello, join_info) -> Decision:
        """Gates 2+3, at first-record time: policy + pacer.

        ``hello`` is the parsed ClientHello (or None when the first
        record was not parseable as one); ``join_info`` is non-None for
        JOINs onto existing sessions.
        """
        now = self.sim.now
        state = self.shedder.observe(now)
        if join_info is not None:
            kind = KIND_JOIN
        else:
            kind = classify_hello(hello)
            if kind == KIND_FULL and hello is not None:
                blob = m.get_extension(hello.extensions, EXT_TCPLS_COUPON)
                if blob is not None and verify_coupon(
                    COUPON_KEY, blob, now, self.config.coupon_lifetime
                ):
                    kind = KIND_COUPON
                    self._counts["coupons_accepted"] += 1
        if state == STATE_SHEDDING:
            return self.reject_state(kind, state)
        if state == STATE_DEGRADED and kind == KIND_FULL:
            return self.reject_state(kind, state)
        if not self.bucket.take(TOKEN_COST[kind]):
            return self.reject_pacer(kind)
        if kind == KIND_FULL:
            self._counts["admitted"] += 1
        else:
            self._counts["admitted_cheap"] += 1
        return Decision(True, kind)

    # -- rejection paths (REL001: each one counts itself) -------------------

    def reject_queue(self) -> bool:
        """Refuse at the accept queue (pre-sniff, cheapest reject)."""
        self._counts["rejected_queue"] += 1
        return False

    def reject_pacer(self, kind: str) -> Decision:
        """Refuse for lack of handshake tokens; coupon the full class."""
        self._counts["rejected_pacer"] += 1
        return Decision(False, kind, reason="pacer", coupon=self._coupon(kind))

    def reject_state(self, kind: str, state: str) -> Decision:
        """Refuse by DEGRADED/SHEDDING policy; coupon the full class."""
        self._counts["rejected_state"] += 1
        return Decision(False, kind, reason=state, coupon=self._coupon(kind))

    def _coupon(self, kind: str) -> bytes:
        if kind != KIND_FULL:
            return b""
        self._counts["coupons_minted"] += 1
        return mint_coupon(COUPON_KEY, self.sim.now, self.rng)

    # -- session tracking --------------------------------------------------

    def track(self, session) -> None:
        """Register a freshly admitted session with the shedder."""
        self.shedder.track(session, self.sim.now)

    def maintain(self) -> str:
        """Periodic budget sweep (the world's tick calls this)."""
        return self.shedder.observe(self.sim.now)

    def counts(self) -> dict:
        """Plain-int snapshot for results/benchmarks."""
        return {**self._counts, "shed_sessions": self.shedder.shed_count()}
