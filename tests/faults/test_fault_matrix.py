"""The scenario matrix: fault kind x injection timing x path count.

Each cell runs a fixed-seed scenario through the invariant checker:
whatever the fault does to the wire, the receiving application must see
every byte exactly once, in order, and any degradation the session
reported must be recovered within the backoff schedule's bound.

The transfer runs at 5 Mbps and starts at t=2.0 s, so the three timings
(2.2 / 3.0 / 3.8) all land mid-transfer whether the scheduler keeps the
stream pinned to one path or spreads it.
"""

import pytest

from repro.core import recovery
from repro.faults import FaultPlan

from tests.faults.conftest import establish_paths, fault_world, run_scenario

PAYLOAD = bytes(range(256)) * 12000  # ~3 MB: ~4.8 s on one 5 Mbps path

KINDS = ("flap", "blackhole", "loss_burst", "corrupt_burst", "rst_storm",
         "nat_rebind")
TIMINGS = (2.2, 3.0, 3.8)


def _plan_for(kind: str, at: float) -> FaultPlan:
    plan = FaultPlan(name=f"{kind}@{at}")
    if kind == "flap":
        plan.flap(at, 1.5, path=0)
    elif kind == "blackhole":
        plan.blackhole(at, 1.5, path=0)
    elif kind == "loss_burst":
        plan.loss_burst(at, 1.5, loss=0.3, path=0)
    elif kind == "corrupt_burst":
        plan.corrupt_burst(at, 0.5, every=3, path=0)
    elif kind == "rst_storm":
        plan.rst_storm(at, 1.0, path=0, every=1)
    elif kind == "nat_rebind":
        plan.nat_rebind(at, path=0)
    return plan


@pytest.mark.parametrize("at", TIMINGS)
@pytest.mark.parametrize("kind", KINDS)
def test_single_fault_on_primary_path(kind, at):
    world = establish_paths(fault_world(paths=2, seed=5))
    report, engine = run_scenario(world, _plan_for(kind, at), PAYLOAD,
                                  until=90.0)
    assert engine.log, "plan never executed"
    report.assert_ok()


@pytest.mark.parametrize("paths,seed", [(1, 11), (2, 23), (3, 37)])
def test_random_multi_fault_plan_recovers(paths, seed):
    """Seeded-random composite plans across path counts.

    Five faults drawn from the full windowed vocabulary land anywhere in
    the transfer; whatever the combination, the invariants must hold.
    """
    world = establish_paths(fault_world(paths=paths, seed=seed))
    plan = FaultPlan.random(
        seed=seed, horizon=8.0, paths=paths, count=5,
        min_start=2.2, max_duration=1.5,
    )
    report, engine = run_scenario(world, plan, PAYLOAD, until=120.0)
    assert len([entry for entry in engine.log if entry[3] != "end"]) == 5
    report.assert_ok()


def test_concurrent_faults_on_both_paths():
    """Overlapping faults on different paths at once (but never a
    simultaneous full blackout, which no protocol could mask)."""
    world = establish_paths(fault_world(paths=2, seed=9))
    plan = (
        FaultPlan(name="crossfire")
        .flap(2.4, 1.2, path=0)
        .loss_burst(2.8, 1.5, loss=0.25, path=1)
        .rst_storm(5.0, 0.8, path=0, every=2)
        .corrupt_burst(5.4, 0.6, every=2, path=1)
    )
    report, _ = run_scenario(world, plan, PAYLOAD, until=90.0)
    report.assert_ok()


def test_total_blackout_recovers_after_restore(monkeypatch):
    """Both paths flap together for longer than the TCP user timeout:
    every connection dies, the session reports no_path, and once the
    links return the retry machinery must re-JOIN and finish the
    transfer."""
    monkeypatch.setattr(recovery, "JOIN_TIMEOUT", 2.0)
    world = establish_paths(fault_world(paths=2, seed=13))
    plan = FaultPlan(name="blackout").flap(2.5, 8.0, path=0).flap(2.5, 8.0, path=1)
    report, _ = run_scenario(world, plan, PAYLOAD, until=120.0, slack=4.0)
    report.assert_ok()
    spans = report.details["recovery"]
    assert spans["recovered"], "blackout never produced a recovery episode"
