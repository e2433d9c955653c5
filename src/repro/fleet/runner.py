"""The sharded fleet runner: partition, fan out, merge, verify.

``run_fleet`` takes a list of independent scenario cells, partitions
them into contiguous shards, runs each shard — in-process for one
worker, or across a ``multiprocessing`` pool — and merges everything at
the barrier:

- **digests**: the merged event-stream digest is SHA-256 over the
  per-cell digests *in cell-index order*.  Cells are isolated worlds
  with rewound process globals, so a cell's digest is independent of
  the shard that ran it; contiguous-block partitioning makes
  shard-major concatenation equal cell-index order; therefore the
  merged digest is invariant under the shard count, and an N-worker
  run is digest-verifiable against the single-process run;
- **pcaps**: per-cell traces concatenate in the same order
  (``netsim.pcap.merge_pcaps``), with one SHA-256 over the merged
  record stream;
- **telemetry**: per-cell mergeable states reduce through
  ``Telemetry.merge``.

Nothing here reads the host clock, so a ``FleetResult`` is a function of
its cells: two runs differ only in ``workers``/``shards`` and the
``fleet.shards`` counter.  Time ``run_fleet`` from outside
(``benchmarks/test_fleet.py`` does).

Workers use the ``fork`` start method (the cell builds its whole world
after the fork, so nothing stateful is inherited that
``reset_process_globals`` does not rewind); where ``fork`` is
unavailable the runner degrades to sequential in-process execution,
which produces identical merged output — only slower.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.fleet.cells import run_cell
from repro.fleet.spec import (
    CellSpec,
    CellResult,
    ShardResult,
    ShardSpec,
    derive_cell_seed,
)
from repro.netsim.pcap import merge_pcaps
from repro.obs import keys as obs_keys
from repro.obs.telemetry import Telemetry


def make_cells(
    count: int,
    base_seed: int = 0,
    kind: str = "bulk",
    params: Optional[dict] = None,
    shake_seed: Optional[int] = None,
    pcap_dir: Optional[str] = None,
) -> List[CellSpec]:
    """A homogeneous cell set with per-cell derived seeds."""
    cells = []
    for index in range(count):
        pcap_path = None
        if pcap_dir is not None:
            pcap_path = f"{pcap_dir}/cell_{index:04d}.pcap"
        cells.append(
            CellSpec(
                index=index,
                kind=kind,
                seed=derive_cell_seed(base_seed, index),
                params=dict(params or {}),
                shake_seed=shake_seed,
                pcap_path=pcap_path,
            )
        )
    return cells


def partition_cells(
    cells: Sequence[CellSpec], shards: int
) -> List[List[CellSpec]]:
    """Contiguous blocks, sizes differing by at most one.

    Contiguity is load-bearing: concatenating shard outputs in shard
    order must reproduce cell-index order, or the merged digest would
    depend on the shard count.
    """
    if shards < 1:
        raise ValueError("need at least one shard")
    shards = min(shards, len(cells)) or 1
    base, extra = divmod(len(cells), shards)
    blocks: List[List[CellSpec]] = []
    start = 0
    for index in range(shards):
        size = base + (1 if index < extra else 0)
        blocks.append(list(cells[start : start + size]))
        start += size
    return blocks


def run_shard(spec: ShardSpec) -> ShardResult:
    """Run one shard's cells (worker entry point; also used inline)."""
    return ShardResult(
        index=spec.index, cells=[run_cell(cell) for cell in spec.cells]
    )


@dataclass
class FleetResult:
    """The barrier merge of one fleet run."""

    workers: int
    shards: List[ShardResult] = field(default_factory=list)
    cells: List[CellResult] = field(default_factory=list)
    #: SHA-256 over per-cell event digests, cell-index order.
    event_digest: str = ""
    #: SHA-256 over per-cell pcap-tap digests, cell-index order.
    pcap_digest: str = ""
    #: Digest of the merged pcap file's record stream (when written).
    merged_pcap_path: Optional[str] = None
    merged_pcap_file_digest: Optional[str] = None
    total_events: int = 0
    total_sessions: int = 0
    total_packets: int = 0
    telemetry: Optional[Telemetry] = None

    def to_metrics(self) -> dict:
        """JSON-ready summary for the BENCH export."""
        return {
            "workers": self.workers,
            "cells": len(self.cells),
            "event_digest": self.event_digest,
            "pcap_digest": self.pcap_digest,
            "merged_pcap_file_digest": self.merged_pcap_file_digest,
            "total_events": self.total_events,
            "total_sessions": self.total_sessions,
            "total_packets": self.total_packets,
            "telemetry": self.telemetry.snapshot() if self.telemetry else {},
        }


def _fork_context():
    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    return multiprocessing.get_context("fork")


def run_fleet(
    cells: Sequence[CellSpec],
    workers: int = 1,
    merge_pcap_path: Optional[str] = None,
) -> FleetResult:
    """Partition ``cells`` across ``workers``, run, and merge.

    ``workers=1`` runs everything in-process (the digest reference the
    sharded runs are verified against).  ``merge_pcap_path`` additionally
    concatenates the per-cell pcaps (cells must have ``pcap_path`` set)
    into one auditable trace with a record-stream digest.
    """
    if not cells:
        raise ValueError("a fleet run needs at least one cell")
    import hashlib

    blocks = partition_cells(cells, workers)
    specs = [
        ShardSpec(index=index, shards=len(blocks), cells=block)
        for index, block in enumerate(blocks)
    ]

    context = _fork_context() if len(specs) > 1 else None
    if context is None:
        shard_results = [run_shard(spec) for spec in specs]
    else:
        with context.Pool(processes=len(specs)) as pool:
            shard_results = pool.map(run_shard, specs)

    # Shard-major concatenation == cell-index order (contiguous blocks).
    merged_cells: List[CellResult] = []
    for shard in shard_results:
        merged_cells.extend(shard.cells)

    event_hash = hashlib.sha256()
    pcap_hash = hashlib.sha256()
    for cell in merged_cells:
        event_hash.update(cell.event_digest.encode("ascii"))
        pcap_hash.update(cell.pcap_digest.encode("ascii"))

    merged_pcap_path = None
    merged_pcap_file_digest = None
    if merge_pcap_path is not None:
        paths = [cell.pcap_path for cell in merged_cells if cell.pcap_path]
        if paths:
            merged_pcap_path, merged_pcap_file_digest = merge_pcaps(
                paths, merge_pcap_path
            )

    telemetry = Telemetry.merge(cell.telemetry for cell in merged_cells)
    telemetry.counter(obs_keys.COMP_FLEET, obs_keys.FLEET_SHARDS).inc(
        len(shard_results)
    )

    return FleetResult(
        workers=len(specs),
        shards=list(shard_results),
        cells=merged_cells,
        event_digest=event_hash.hexdigest(),
        pcap_digest=pcap_hash.hexdigest(),
        merged_pcap_path=merged_pcap_path,
        merged_pcap_file_digest=merged_pcap_file_digest,
        total_events=sum(cell.events for cell in merged_cells),
        total_sessions=sum(cell.sessions for cell in merged_cells),
        total_packets=sum(cell.packets for cell in merged_cells),
        telemetry=telemetry,
    )
