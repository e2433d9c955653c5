"""The seed generates the inputs: another seed, another simulation, the
same ops and the same passing checks."""

import pytest

from bench import harness
from bench.workloads import WORKLOADS

SCALE = 0.25


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_second_seed_changes_digest_not_ops(name):
    workload = WORKLOADS[name]
    first = harness.run_repeat(workload, harness.sub_seed(1, 0), SCALE)
    again = harness.run_repeat(workload, harness.sub_seed(1, 0), SCALE)
    other = harness.run_repeat(workload, harness.sub_seed(2, 0), SCALE)
    assert first.digest == again.digest
    assert first.digest != other.digest
    for repeat in (first, again, other):
        assert repeat.outcome.failures == []
        assert repeat.outcome.completed == repeat.outcome.attempted
    assert first.outcome.attempted == other.outcome.attempted
