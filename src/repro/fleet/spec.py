"""Shard-boundary objects: what crosses between fleet processes.

Everything in this module is a plain picklable dataclass (or a pure
function of ints) because it travels through ``multiprocessing`` — the
parent ships :class:`ShardSpec` down to workers and gets
:class:`ShardResult` back.  The FP002 lint rule enforces that every
class defined here is declared in :data:`PICKLE_BOUNDARY` and has a
registered pickle round-trip test (``repro.fleet.CROSSCHECKS``), so the
boundary cannot silently grow an unpicklable or untested object.

Seed derivation
---------------

Every scenario cell gets its own RNG seed derived from the fleet's base
seed and the cell's index via SHA-256 (:func:`derive_cell_seed`).  The
derivation depends only on ``(base_seed, cell_index)`` — never on the
shard count or which worker runs the cell — which is one of the three
legs the merge invariant stands on (the others: per-cell world
isolation, and contiguous-block partitioning; see DESIGN §4i).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: Every class in this module that crosses the process boundary.  FP002
#: checks this list against the module's top-level class definitions and
#: against the ``repro.fleet.CROSSCHECKS`` registry.
PICKLE_BOUNDARY: Tuple[str, ...] = (
    "CellSpec",
    "ShardSpec",
    "CellResult",
    "ShardResult",
)


def derive_cell_seed(base_seed: int, cell_index: int) -> int:
    """A 63-bit per-cell seed, stable across shard counts and platforms."""
    digest = hashlib.sha256(
        b"repro.fleet.cell:%d:%d" % (base_seed, cell_index)
    ).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass
class CellSpec:
    """One independent scenario cell: an isolated simulator world.

    ``params`` stays a plain dict of JSON-able values (floats, ints,
    strings) — the cell runner materializes live objects (networks,
    fault plans) inside the worker, so the spec itself never drags a
    simulator across the pickle boundary.
    """

    index: int
    kind: str = "bulk"
    seed: int = 0
    params: Dict[str, object] = field(default_factory=dict)
    #: Engage ``Simulator.enable_schedule_shake`` with this seed (the
    #: determinism tests run the fleet under shake too).
    shake_seed: Optional[int] = None
    #: When set, the cell writes its wire traffic here as a pcap.
    pcap_path: Optional[str] = None


@dataclass
class ShardSpec:
    """One worker's assignment: a contiguous block of cells.

    Workers are forked (or run inline), so they inherit the parent's
    fastpath flags; nothing about the datapath travels in the spec.
    """

    index: int
    shards: int
    cells: List[CellSpec] = field(default_factory=list)


@dataclass
class CellResult:
    """Everything one cell run reduces to: picklable, mergeable, and a
    function of the cell's spec alone (no host time)."""

    index: int
    kind: str
    event_digest: str
    pcap_digest: str
    clock: float
    events: int
    packets: int
    sessions: int
    telemetry: Dict[str, dict] = field(default_factory=dict)
    pcap_path: Optional[str] = None


@dataclass
class ShardResult:
    """One worker's barrier contribution."""

    index: int
    cells: List[CellResult] = field(default_factory=list)
