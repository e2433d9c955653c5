"""Admission control units: pacer, classifier, coupons, shedder, gates.

Pure-policy tests on a settable fake clock — no network, no sessions
except tiny stubs exposing the three methods the shedder needs
(``session_closed`` / ``session_memory_bytes()`` / ``crash()``).
"""

import pytest

from repro.overload.admission import (
    KIND_COUPON,
    KIND_FULL,
    KIND_JOIN,
    KIND_RESUMPTION,
    AdmissionConfig,
    AdmissionController,
    TokenBucket,
    classify_hello,
)
from repro.overload.coupons import COUPON_LEN, mint_coupon, verify_coupon
from repro.overload.shedding import (
    STATE_DEGRADED,
    STATE_NORMAL,
    STATE_SHEDDING,
    LoadShedder,
)
from repro.tls import messages as m
from repro.tls.messages import EXT_PRE_SHARED_KEY, EXT_TCPLS_COUPON

from tests.overload.conftest import FakeClock

import random

KEY = b"unit-test-coupon-key"


def _hello(extensions=()):
    return m.ClientHello(random=b"\x07" * 32, extensions=list(extensions))


class _StubSession:
    def __init__(self, memory):
        self.memory = memory
        self.session_closed = False
        self.crashed = False

    def session_memory_bytes(self):
        return 0 if self.session_closed else self.memory

    def crash(self):
        self.crashed = True
        self.session_closed = True


# -- token bucket ----------------------------------------------------------


def test_token_bucket_lazy_refill_and_burst_cap():
    clock = FakeClock()
    bucket = TokenBucket(lambda: clock.now, rate=10.0, burst=5.0)
    assert bucket.available() == 5.0
    assert bucket.take(5.0)
    assert not bucket.take(0.5)
    clock.advance(0.1)  # 1 token refills
    assert bucket.take(0.5)
    clock.advance(100.0)  # refill is capped at the burst depth
    assert bucket.available() == 5.0


def test_token_bucket_fractional_costs():
    clock = FakeClock()
    bucket = TokenBucket(lambda: clock.now, rate=1.0, burst=1.0)
    for _ in range(10):
        assert bucket.take(0.1)
    assert not bucket.take(0.1)


# -- classifier ------------------------------------------------------------


def test_classify_hello_fail_closed_and_psk():
    assert classify_hello(None) == KIND_FULL
    assert classify_hello(_hello()) == KIND_FULL
    assert classify_hello(_hello([(EXT_PRE_SHARED_KEY, b"\x00")])) == KIND_RESUMPTION


# -- coupons ---------------------------------------------------------------


def test_coupon_roundtrip_and_expiry():
    rng = random.Random(1)
    blob = mint_coupon(KEY, now=100.0, rng=rng)
    assert len(blob) == COUPON_LEN
    assert verify_coupon(KEY, blob, now=100.0, lifetime=5.0)
    assert verify_coupon(KEY, blob, now=105.0, lifetime=5.0)
    assert not verify_coupon(KEY, blob, now=105.1, lifetime=5.0)


def test_coupon_rejects_tamper_truncate_future_and_wrong_key():
    rng = random.Random(2)
    blob = mint_coupon(KEY, now=50.0, rng=rng)
    # Flip one byte anywhere: MAC fails.
    for index in (0, 8, len(blob) - 1):
        bad = bytearray(blob)
        bad[index] ^= 0x01
        assert not verify_coupon(KEY, bytes(bad), now=50.0, lifetime=5.0)
    assert not verify_coupon(KEY, blob[:-1], now=50.0, lifetime=5.0)
    assert not verify_coupon(KEY, b"", now=50.0, lifetime=5.0)
    # Future-stamped (clock skew / replay prep) fails closed.
    assert not verify_coupon(KEY, blob, now=49.9, lifetime=5.0)
    assert not verify_coupon(b"other-key", blob, now=50.0, lifetime=5.0)


# -- controller gates ------------------------------------------------------


def _controller(clock=None, **overrides):
    clock = clock or FakeClock()
    defaults = dict(
        accept_queue=4,
        handshake_rate=10.0,
        handshake_burst=2.0,
        global_memory_budget=10_000,
        coupon_lifetime=5.0,
        seed=1,
    )
    defaults.update(overrides)
    controller = AdmissionController(clock, AdmissionConfig(**defaults))
    return controller, clock


def test_accept_queue_cap_is_counted():
    controller, _clock = _controller()
    assert controller.admit_connection(pending_depth=3)
    assert not controller.admit_connection(pending_depth=4)
    assert not controller.admit_connection(pending_depth=99)
    assert controller.counts()["rejected_queue"] == 2


def test_pacer_rejects_full_and_mints_coupon():
    controller, _clock = _controller(handshake_burst=1.0)
    first = controller.admit_hello(_hello(), None)
    assert first.admitted and first.kind == KIND_FULL
    second = controller.admit_hello(_hello(), None)
    assert not second.admitted
    assert second.reason == "pacer"
    assert len(second.coupon) == COUPON_LEN
    counts = controller.counts()
    assert counts["rejected_pacer"] == 1
    assert counts["coupons_minted"] == 1


def test_coupon_redial_classifies_cheap_and_is_admitted():
    controller, clock = _controller(handshake_burst=1.0)
    assert controller.admit_hello(_hello(), None).admitted
    refused = controller.admit_hello(_hello(), None)
    assert not refused.admitted
    clock.advance(0.05)  # 0.5 tokens: enough for coupon cost (0.1)
    redial = controller.admit_hello(
        _hello([(EXT_TCPLS_COUPON, refused.coupon)]), None
    )
    assert redial.admitted
    assert redial.kind == KIND_COUPON
    assert controller.counts()["coupons_accepted"] == 1
    assert controller.counts()["admitted_cheap"] == 1


def test_join_and_resumption_ride_the_cheap_path():
    controller, clock = _controller(handshake_burst=1.0)
    assert controller.admit_hello(_hello(), None).admitted  # drains the bucket
    refused_full = controller.admit_hello(_hello(), None)
    assert not refused_full.admitted
    clock.advance(0.02)  # 0.2 tokens: nowhere near a full handshake
    join = controller.admit_hello(None, join_info=object())
    assert join.admitted and join.kind == KIND_JOIN
    psk = _hello([(EXT_PRE_SHARED_KEY, b"\x00")])
    resumption = controller.admit_hello(psk, None)
    assert resumption.admitted and resumption.kind == KIND_RESUMPTION
    # 0.2 - 0.05 - 0.1 leaves 0.05: still starved for the full class.
    assert not controller.admit_hello(_hello(), None).admitted


def test_state_policy_degraded_refuses_full_only():
    controller, clock = _controller()
    # Pin tracked memory into the degraded band (70%..90% of 10k).
    controller.track(_StubSession(8_000))
    psk = _hello([(EXT_PRE_SHARED_KEY, b"\x00")])
    full = controller.admit_hello(_hello(), None)
    assert not full.admitted and full.reason == STATE_DEGRADED
    assert len(full.coupon) == COUPON_LEN
    cheap = controller.admit_hello(psk, None)
    assert cheap.admitted and cheap.kind == KIND_RESUMPTION
    assert controller.counts()["rejected_state"] == 1


def test_state_policy_shedding_refuses_everything_new(monkeypatch):
    controller, _clock = _controller()
    # Fill pinned above the shed watermark with nothing left to shed —
    # the worst case: the machine stays SHEDDING across observations
    # and admission refuses every class, cheap ones included.
    monkeypatch.setattr(controller.shedder, "memory_bytes", lambda: 9_999)
    psk = _hello([(EXT_PRE_SHARED_KEY, b"\x00")])
    refused = controller.admit_hello(psk, None)
    assert not refused.admitted
    assert refused.reason == STATE_SHEDDING
    # Cheap classes never get coupons — only the full class queued work.
    assert refused.coupon == b""
    full = controller.admit_hello(_hello(), None)
    assert not full.admitted and len(full.coupon) == COUPON_LEN
    assert controller.counts()["rejected_state"] == 2


def test_crossing_shed_watermark_sheds_then_readmits():
    controller, _clock = _controller()
    victim = _StubSession(9_500)
    controller.track(victim)
    # The observation inside the admission decision crosses the shed
    # watermark, drops the victim oldest-deadline-first, recovers under
    # the watermark, and then admits the newcomer.
    decision = controller.admit_hello(_hello(), None)
    assert victim.crashed
    assert decision.admitted
    assert controller.counts()["shed_sessions"] == 1
    shedder = controller.shedder
    assert any(to == STATE_SHEDDING for _t, _frm, to in shedder.transitions)
    assert shedder.state == STATE_NORMAL


# -- load shedder ----------------------------------------------------------


def test_shedder_state_machine_walk_and_recovered_edge():
    shedder = LoadShedder(10_000, session_deadline=30.0)
    light = _StubSession(1_000)
    shedder.track(light, now=0.0)
    assert shedder.observe(0.0) == STATE_NORMAL

    heavy = _StubSession(7_500)
    shedder.track(heavy, now=1.0)
    assert shedder.observe(1.0) == STATE_DEGRADED

    # Shrink the budget (the memory_pressure fault hook): fill crosses
    # the shed watermark, the shedder drops sessions, and because the
    # survivors fit under the recover watermark it lands back NORMAL in
    # the same observation.
    shedder.pressure_factor = 0.5
    assert shedder.effective_budget() == 5_000
    state = shedder.observe(2.0)
    assert light.crashed  # oldest deadline went first
    assert shedder.shed_count() >= 1
    edges = [(frm, to) for _t, frm, to in shedder.transitions]
    assert (STATE_NORMAL, STATE_DEGRADED) in edges
    assert (STATE_DEGRADED, STATE_SHEDDING) in edges
    # Shedding freed enough: the "recovered" edge closes the walk.
    assert (STATE_SHEDDING, STATE_NORMAL) in edges
    assert state == STATE_NORMAL


def test_shedder_sheds_oldest_deadline_first():
    shedder = LoadShedder(10_000, session_deadline=10.0)
    old = _StubSession(3_000)
    newer = _StubSession(3_000)
    newest = _StubSession(3_000)
    shedder.track(old, now=0.0)
    shedder.track(newer, now=1.0)
    shedder.track(newest, now=2.0)
    shedder.observe(3.0)
    # 9000/10000 >= 0.9: shed until <= 5000 — the two oldest go.
    assert old.crashed and newer.crashed
    assert not newest.crashed
    assert shedder.shed_count() == 2


def test_shed_sessions_counter_matches_shed_count():
    controller, _clock = _controller()
    for _ in range(3):
        controller.track(_StubSession(3_000))
    controller.maintain()
    assert controller.shedder.shed_count() == 2
    assert controller.counts()["shed_sessions"] == controller.shedder.shed_count()


def test_shedder_prunes_closed_sessions_without_counting_them():
    shedder = LoadShedder(10_000)
    session = _StubSession(4_000)
    shedder.track(session, now=0.0)
    session.session_closed = True  # closed normally, not shed
    assert shedder.memory_bytes() == 0
    assert shedder.tracked_count() == 0
    assert shedder.shed_count() == 0


def test_shedder_ties_break_on_admission_order():
    shedder = LoadShedder(1_000, session_deadline=5.0)
    first = _StubSession(500)
    second = _StubSession(400)
    shedder.track(first, now=0.0)
    shedder.track(second, now=0.0)  # identical deadline
    shedder.observe(0.5)
    assert first.crashed  # order breaks the tie deterministically
    assert not second.crashed


def test_controller_counts_are_plain_ints():
    controller, _clock = _controller()
    counts = controller.counts()
    assert set(counts) == {
        "admitted",
        "admitted_cheap",
        "rejected_queue",
        "rejected_pacer",
        "rejected_state",
        "shed_sessions",
        "coupons_minted",
        "coupons_accepted",
    }
    assert all(isinstance(value, int) for value in counts.values())
