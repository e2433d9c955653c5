"""O1: overload robustness — goodput stays flat past saturation.

An open-loop arrival storm (:mod:`repro.overload`) sweeps offered load
from 0.5x to 4x the farm's engineered capacity against one
admission-gated TCPLS listener.  The claim under test is the classic
load-shedding result: with admission control, retry coupons, and
deadline-based shedding in front, **goodput does not collapse past the
knee** — completions per offered second at 4x stay at or above 80% of
the 1x figure, with the excess turned into cheap, counted rejections
instead of half-served sessions.

A second, faulted cell drives the shedder through its whole state
machine (``client_stampede`` + ``slow_reader`` + ``memory_pressure``
from the fault vocabulary) and asserts shed/reject counts are nonzero
and digest-identical across a double run.

Printed: the goodput curve (completions/sec at each offered
multiplier), the admission counts at 4x, the faulted cell's shedding,
and the arrival-to-last-response-byte latency p50/p99 at 1x, all on the
simulated clock.
"""

from __future__ import annotations

from repro.analysis import reset_process_globals
from repro.faults.plan import FaultPlan
from repro.overload import OverloadConfig, run_overload

CAPACITY = 30.0
DURATION = 1.5
MULTIPLIERS = (0.5, 1.0, 2.0, 4.0)


def _percentile(values, fraction):
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[index]


def _config(multiplier: float) -> OverloadConfig:
    return OverloadConfig(
        capacity_rate=CAPACITY,
        offered_multiplier=multiplier,
        duration=DURATION,
        seed=1,
    )


def _faulted_plan() -> FaultPlan:
    return (
        FaultPlan(name="overload-mix")
        .client_stampede(0.3 * DURATION, count=int(CAPACITY // 2))
        .slow_reader(0.1 * DURATION, 0.5 * DURATION)
        .memory_pressure(0.3 * DURATION, 0.4 * DURATION, factor=0.05)
    )


def _counts_digest(result) -> tuple:
    return (
        result.offered,
        result.completed,
        result.failed,
        result.rejected,
        tuple(sorted(result.counts.items())),
        result.events_processed,
        tuple(round(value, 9) for value in result.latencies),
    )


def test_overload_goodput_curve():
    sweep = {}
    for multiplier in MULTIPLIERS:
        reset_process_globals()
        sweep[multiplier] = run_overload(_config(multiplier))
    # Faulted cell, run twice: shed counts must be deterministic.
    plan = _faulted_plan()
    reset_process_globals()
    faulted = run_overload(_config(2.0), fault_plan=plan)
    reset_process_globals()
    faulted_again = run_overload(_config(2.0), fault_plan=plan)

    # -- acceptance --------------------------------------------------------
    for multiplier, result in sweep.items():
        # Open-loop arithmetic: every arrival is accounted for exactly once.
        assert result.completed + result.failed + result.rejected == result.offered
        # The clock drained: no leaked timers keep the world alive.
        assert result.live_events == 0
    # At/below capacity everything is served.
    assert sweep[0.5].completed == sweep[0.5].offered
    assert sweep[1.0].completed == sweep[1.0].offered
    # Past saturation the curve stays flat: goodput at 4x holds at
    # >= 80% of goodput at 1x (ISSUE 9's pass criterion).
    assert sweep[4.0].goodput >= 0.8 * sweep[1.0].goodput
    # The excess was actively refused, not silently dropped.
    counts_4x = sweep[4.0].counts
    rejected_4x = (
        counts_4x["rejected_queue"]
        + counts_4x["rejected_pacer"]
        + counts_4x["rejected_state"]
    )
    assert rejected_4x > 0
    assert counts_4x["coupons_minted"] > 0
    # The faulted cell walked the state machine and shed sessions...
    assert faulted.counts["shed_sessions"] > 0
    assert faulted.counts["rejected_state"] > 0
    assert any(to == "shedding" for _, _, to in faulted.transitions)
    assert any(to == "normal" for _, _, to in faulted.transitions)
    # ...deterministically: double run, identical digests.
    assert _counts_digest(faulted) == _counts_digest(faulted_again)

    goodput = {m: sweep[m].goodput for m in MULTIPLIERS}
    latencies_1x = sweep[1.0].latencies
    lines = [
        "O1: overload robustness (admission + shedding)",
        f"capacity             {CAPACITY:.0f} handshakes/s over {DURATION:.1f}s",
        "goodput (req/s)      "
        + "  ".join(f"{m}x={goodput[m]:.1f}" for m in MULTIPLIERS),
        f"flatness 4x/1x       {goodput[4.0] / max(goodput[1.0], 1e-9):.2f}"
        " (pass >= 0.80)",
        f"rejected @4x         {rejected_4x}"
        f" (queue {counts_4x['rejected_queue']}"
        f" / pacer {counts_4x['rejected_pacer']}"
        f" / state {counts_4x['rejected_state']})",
        f"coupons @4x          minted {counts_4x['coupons_minted']}"
        f" accepted {counts_4x['coupons_accepted']}",
        f"faulted cell         shed {faulted.counts['shed_sessions']}"
        f" transitions {len(faulted.transitions)}"
        f" completed {faulted.completed}/{faulted.offered}",
        f"latency p50/p99 @1x  {_percentile(latencies_1x, 0.50) * 1000:.1f} ms"
        f" / {_percentile(latencies_1x, 0.99) * 1000:.1f} ms",
    ]
    print(*lines, sep="\n")
