"""The benchmark's simulated outcomes, frozen at quarter scale.

``bench.harness.sim_digest`` hashes everything simulated that a
host-only change must keep: events processed, the simulated end time,
every latency sample, delivered bytes per connection.  ``bench/tests``
checks it between commits but is not tier-1, so a refactor of the
datapath could change wire behaviour and only the next benchmark run
would notice.  Here each of the five standing workloads is built once
(seed 1, first world, scale 0.25 — the benchmark's own warm-up size)
and its digest compared with the value taken at commit 5804457.

A digest that moves means simulated behaviour moved.  If that is the
intent, it is a benchmark change: re-pin these constants in a PR of
their own, never alongside a performance claim.  Reads ``bench/``,
changes nothing there.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench.harness import WARMUP_SCALE, sim_digest, sub_seed
from bench.trace import NoTrace
from bench.workloads import WORKLOADS
from repro.analysis.sanitizers import reset_process_globals

#: workload -> (sim_digest, ops) at seed 1, first world, scale 0.25.
FROZEN = {
    "bulk_2path": ("b0988110539a1cd2", 2),
    "small_rpc": ("0cae43e78a0920e9", 62),
    "handshake_churn": ("cd8b1661d71ab0c1", 20),
    "overload_2x": ("bb097184ee278e9b", 12),
    "bulk_adverse": ("4f3b4de933594bf6", 2),
}


def test_every_standing_workload_is_frozen():
    assert set(FROZEN) == set(WORKLOADS) and WARMUP_SCALE == 0.25


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_quarter_scale_sim_digest_is_the_frozen_one(name):
    workload = WORKLOADS[name]
    reset_process_globals()
    world = workload.build(sub_seed(1, 0), WARMUP_SCALE)
    outcome = workload.drive(world, NoTrace())
    digest, ops = FROZEN[name]
    assert outcome.failures == []
    assert (outcome.completed, outcome.attempted) == (ops, ops)
    assert sim_digest(outcome) == digest
