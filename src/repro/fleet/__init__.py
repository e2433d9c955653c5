"""Sharded fleet simulation: scale-out with a digest-verifiable merge.

The discrete-event engine is single-threaded by design; the fleet buys
throughput the only way that preserves determinism — by running *many
independent worlds* at once and merging their outputs in an order that
cannot depend on scheduling.  See ``repro.fleet.runner`` for the merge
invariant and DESIGN §4i for the architecture.

Quick start::

    from repro.fleet import make_cells, run_fleet

    cells = make_cells(16, base_seed=42, kind="bulk")
    single = run_fleet(cells, workers=1)
    fleet = run_fleet(cells, workers=4)
    assert fleet.event_digest == single.event_digest
"""

from __future__ import annotations

from typing import Dict

from repro.fleet.cells import CELL_KINDS, run_cell
from repro.fleet.runner import (
    FleetResult,
    make_cells,
    partition_cells,
    run_fleet,
    run_shard,
)
from repro.fleet.spec import (
    CellResult,
    CellSpec,
    PICKLE_BOUNDARY,
    ShardResult,
    ShardSpec,
    derive_cell_seed,
)

#: Cross-check registry enforced by the FP002 lint rule: every object
#: crossing the shard boundary must have a pickle round-trip test, so no
#: shard-boundary object outlives the test that proves it safe.
CROSSCHECKS: Dict[str, str] = {
    "CellSpec": "tests/fleet/test_pickle_boundary.py",
    "ShardSpec": "tests/fleet/test_pickle_boundary.py",
    "CellResult": "tests/fleet/test_pickle_boundary.py",
    "ShardResult": "tests/fleet/test_pickle_boundary.py",
}

__all__ = [
    "CELL_KINDS",
    "CROSSCHECKS",
    "CellResult",
    "CellSpec",
    "FleetResult",
    "PICKLE_BOUNDARY",
    "ShardResult",
    "ShardSpec",
    "derive_cell_seed",
    "make_cells",
    "partition_cells",
    "run_cell",
    "run_fleet",
    "run_shard",
]
