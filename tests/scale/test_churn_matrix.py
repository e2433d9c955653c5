"""Churn matrix: ramp 0→N→0 must be deterministic and keep its traffic.

Two cells — clean, fault-plan flaps — each run twice through the
determinism sanitizer.  On top of per-cell identity, the wire traffic
(pcap digest), packet and event counts and the final clock are held to
values frozen at commit ad1523e: generated there with every
``repro.fastpath`` flag off (event heap of ``Event`` objects, scan
twins) and verified identical with every flag on, so a firing-order
bug under hundreds-of-timers churn cannot hide behind run-to-run
sameness.
"""

import pytest

from repro.analysis.sanitizers import DeterminismProbe, check_determinism
from repro.faults.plan import FaultPlan
from repro.scale.loadgen import ScaleConfig
from repro.scale.loadgen import run_scale

#: Small enough to keep 4 full runs quick, large enough that the ramp
#: exercises pool churn, reuse, and hundreds of concurrent timers.
SESSIONS = 30


def _config():
    return ScaleConfig(
        sessions=SESSIONS,
        reuse_fraction=0.5,
        client_hosts=2,
        listeners=2,
        arrival_span=0.6,
        hold_time=0.3,
        seed=11,
    )


def _fault_plan():
    # Flap each client link once during the ramp: connections fail,
    # failover replays, the pool redials — departure churn under fire.
    return FaultPlan().flap(0.35, 0.15, path=0).flap(0.7, 0.2, path=1)


def _scenario(faults):
    def scenario(probe: DeterminismProbe):
        def on_world(world):
            probe.watch(world.sim)
            probe.tap(world.links[0], world.links[0].endpoint(0))
            probe.tap(world.links[0], world.links[0].endpoint(1))

        result = run_scale(
            _config(),
            fault_plan=_fault_plan() if faults else None,
            on_world=on_world,
        )
        # The ramp must complete and tear down clean in every cell: no
        # lost requests without faults, and zero live timers always
        # (the cancelled-event accounting bug surfaced exactly here).
        if not faults:
            assert result.requests_failed == 0
        assert result.requests_completed > 0
        assert result.live_events == 0

    return scenario


#: faults -> (pcap_hash, packets, clock, events) of the ramp.
FROZEN = {
    False: ("bba42126bb9af2154bb125c505525f2b2d9aca984f0adf7046a2d2671df9f9c1",
            695, 3.234651592097982, 1654),
    True: ("281cd5bd18f5408620a9c33cb657fa21d5d3e769eba31214f61edf8eeb305176",
           617, 3.508858436481186, 1665),
}


@pytest.mark.parametrize("faults", [False, True], ids=["clean", "flaps"])
def test_churn_ramp_is_deterministic(faults):
    report = check_determinism(_scenario(faults), runs=2)
    assert report.ok, report.format()
    digest = report.runs[0]
    assert (digest.pcap_hash, digest.packets, digest.clock, digest.events) == (
        FROZEN[faults]
    )
