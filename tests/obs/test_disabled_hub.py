"""A disabled observability hub changes no result.

Every count a result reports lives on the object that counts it
(``TcplsSession.stats``, ``AdmissionController.counts()``,
``SessionPool.stats()``), not in the hub, so switching the hub off can
neither crash a run nor blank a field: the result dataclasses of the
three farm worlds compare equal with the hub on and off.
"""

import pytest

from repro.analysis import reset_process_globals
from repro.obs import Observability
from repro.overload.world import OverloadConfig, run_overload
from repro.scale.loadgen import ScaleConfig, run_scale
from repro.scale.recovery import RecoveryConfig, run_recovery

WORLDS = {
    "overload": lambda obs: run_overload(
        OverloadConfig(duration=0.5, offered_multiplier=2.0), observability=obs
    ),
    "scale": lambda obs: run_scale(
        ScaleConfig(sessions=8, client_hosts=2, arrival_span=0.2, hold_time=0.1),
        observability=obs,
    ),
    "recovery": lambda obs: run_recovery(
        RecoveryConfig(sessions=6, zero_rtt_probes=2), observability=obs
    ),
}


def _run(name, enabled):
    reset_process_globals()
    return WORLDS[name](Observability(None, enabled=enabled))


@pytest.mark.parametrize("name", sorted(WORLDS))
def test_disabled_hub_changes_no_result(name):
    on = _run(name, enabled=True)
    off = _run(name, enabled=False)
    assert on == off
    if name == "overload":
        assert off.counts["admitted"] > 0
        assert off.counts["rejected_pacer"] + off.counts["rejected_state"] > 0
