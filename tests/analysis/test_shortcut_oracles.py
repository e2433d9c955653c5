"""The carried segment, the pump gate and the unbuilt payload, checked
against their specs.

``tests/shortcut_oracles.py`` states the three shortcuts without their
code: a segment the receiving stack hands on equals the parse of its
bytes, a send progress that does not pump leaves nothing a pump would
have sent or closed, and a payload built on read equals the segment's
bytes when it was sent.  Here they watch the five standing workloads at
quarter scale (seed 1, first world, as in ``test_bench_costs.py``) and
A8b's ten corruption periods on one path, where corruption forces
parses, connection failures and replays.  ``tests/faults/conftest.py``
runs the whole fault matrix under all three as well.  Reads ``bench/``,
changes nothing there.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench.harness import WARMUP_SCALE, sub_seed
from bench.trace import NoTrace
from bench.workloads import WORKLOADS
from repro.analysis.sanitizers import reset_process_globals

from tests.paper.test_ablation_streams import PERIOD_DELIVERED, _run
from tests.shortcut_oracles import materialize_oracle, parse_oracle, pump_gate_oracle


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_standing_workloads_take_the_shortcuts_exactly(name):
    workload = WORKLOADS[name]
    reset_process_globals()
    with parse_oracle() as parses, pump_gate_oracle() as gates, materialize_oracle() as builds:
        outcome = workload.drive(workload.build(sub_seed(1, 0), WARMUP_SCALE), NoTrace())
    assert outcome.failures == []
    # Not vacuous: every workload receives carried segments and sends
    # unbuilt ones, and the bulk ones skip most of their progress pumps.
    assert parses["carried"] > 0
    assert builds["unbuilt"] > 0 and builds["built"] > 0
    if name.startswith("bulk"):
        assert gates["skipped"] > gates["progress"] // 2


@pytest.mark.parametrize("every", list(PERIOD_DELIVERED))
def test_a8b_corruption_periods_take_the_shortcuts_exactly(every):
    reset_process_globals()
    with parse_oracle() as parses, pump_gate_oracle() as gates, materialize_oracle() as builds:
        _run(1, corrupt_every=every)
    assert parses["used"] > parses["carried"] > 0
    assert builds["unbuilt"] > 0 and builds["built"] > 0
    assert gates["skipped"] > 0
