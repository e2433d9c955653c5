"""Determinism under sharding: the merge invariant, adversarially.

The fleet's claim is that a merged N-shard run is digest-verifiable
against the single-process run of the same scenario set.  These tests
run one cell set at 1, 2, and 4 shards and require identical merged
event-stream and pcap digests — on the plain workload, under a
scripted fault plan, under schedule shake, and for the merged pcap
*file* bytes.
"""

import dataclasses
import os

import pytest

from repro import fastpath
from repro.fleet import make_cells, partition_cells, run_cell, run_fleet
from repro.netsim.pcap import pcap_file_digest, read_pcap

SHARD_COUNTS = (1, 2, 4)

_BULK = {"payload_bytes": 6000, "until": 3.0}
_OVERLOAD = {
    "capacity_rate": 8.0,
    "offered_multiplier": 2.0,
    "duration": 1.0,
    "stampede_at": 0.3,
    "stampede_count": 4,
    "slow_at": 0.2,
    "slow_duration": 0.4,
    "mem_at": 0.5,
    "mem_duration": 0.4,
    "mem_factor": 0.1,
}


def _digests(cells, workers):
    result = run_fleet(cells, workers=workers)
    return result.event_digest, result.pcap_digest


def test_partition_is_contiguous_and_balanced():
    cells = make_cells(10, base_seed=1)
    blocks = partition_cells(cells, 4)
    assert [len(block) for block in blocks] == [3, 3, 2, 2]
    flat = [cell.index for block in blocks for cell in block]
    assert flat == list(range(10))


def test_partition_caps_shards_at_cell_count():
    cells = make_cells(2, base_seed=1)
    assert len(partition_cells(cells, 8)) == 2


def test_merged_digests_invariant_across_shard_counts():
    cells = make_cells(4, base_seed=42, kind="bulk", params=_BULK)
    reference = _digests(cells, workers=1)
    for workers in SHARD_COUNTS[1:]:
        assert _digests(cells, workers) == reference


def test_merged_digests_invariant_under_fault_plan():
    params = dict(_BULK, flap_at=0.9, flap_duration=0.05)
    cells = make_cells(4, base_seed=7, kind="bulk", params=params)
    reference = _digests(cells, workers=1)
    for workers in SHARD_COUNTS[1:]:
        assert _digests(cells, workers) == reference


def test_merged_digests_invariant_under_schedule_shake():
    cells = make_cells(4, base_seed=11, kind="bulk", params=_BULK, shake_seed=13)
    reference = _digests(cells, workers=1)
    for workers in SHARD_COUNTS[1:]:
        assert _digests(cells, workers) == reference


def test_merged_digests_invariant_for_churn_cells():
    cells = make_cells(
        2, base_seed=5, kind="churn", params={"sessions": 8, "client_hosts": 2}
    )
    reference = _digests(cells, workers=1)
    assert _digests(cells, workers=2) == reference


def test_merged_digests_invariant_for_overload_cells():
    """Overload cells (open-loop storm + workload faults through the
    shedder's whole state machine) must merge digest-identically at
    1, 2, and 4 shards like every other cell kind."""
    cells = make_cells(4, base_seed=17, kind="overload", params=_OVERLOAD)
    reference = _digests(cells, workers=1)
    for workers in SHARD_COUNTS[1:]:
        assert _digests(cells, workers) == reference


#: kind -> (params, (event_digest, pcap_digest, events, packets)) of one
#: ``run_cell`` at base seed 23, frozen at commit c59becb: within-commit
#: shard invariance cannot see a refactor that moves every cell alike.
FROZEN_CELLS = {
    "bulk": (
        dict(_BULK, flap_at=1.002, flap_duration=0.05),
        ("7720b3eed9000ceb3b47ccba345e33b23f8a3e3fb3a993ea614eca4db3c4492c",
         "0106949b01c7995d0fc9cf95d8d15ba81ec3b2e8666b3b0206fe146968c5c011",
         81, 75),
    ),
    "churn": (
        {"sessions": 8, "client_hosts": 2, "flap_at": 0.2},
        ("8e582c4fd87303c57e542540a09012702a8fb870b7094b13ce4a97153f76656b",
         "6ba48dfefa994555c775467dbe0c4a05faa79c4ac2721a56eb496cb304ee6d77",
         414, 347),
    ),
    "overload": (
        _OVERLOAD,
        ("6ef8499a4e8e901962f6b12ba0409798bbb99f17e48959e51957246d62076d9f",
         "4939dd657d6566c8ff38b3f7f385a37b976b5df2ca99348a9afc0d4429aecaf7",
         1417, 1262),
    ),
}


@pytest.mark.parametrize("kind", sorted(FROZEN_CELLS))
def test_cell_digests_are_frozen_across_commits(kind):
    params, frozen = FROZEN_CELLS[kind]
    (spec,) = make_cells(1, base_seed=23, kind=kind, params=params)
    cell = run_cell(spec)
    assert (
        cell.event_digest, cell.pcap_digest, cell.events, cell.packets
    ) == frozen


def test_fleet_digest_independent_of_vectorq_pcap_side():
    """The wire bytes (pcap digest) must not depend on the vectorized
    queue path; the fleet is the end-to-end consumer of that claim."""
    cells = make_cells(2, base_seed=3, kind="bulk", params=_BULK)
    with fastpath.overridden("netsim.vectorq", False):
        scalar = run_fleet(cells, workers=1)
        forked = run_fleet(cells, workers=2)
    with fastpath.overridden("netsim.vectorq", True):
        vector = run_fleet(cells, workers=1)
    assert vector.pcap_digest == scalar.pcap_digest
    # Forked workers inherit the parent's flags: the two paths order
    # their events differently, and the children ran the scalar one.
    assert forked.event_digest == scalar.event_digest != vector.event_digest


def test_merged_pcap_file_invariant_across_shard_counts(tmp_path):
    def run_with_pcaps(workers):
        pcap_dir = tmp_path / f"w{workers}"
        os.makedirs(pcap_dir, exist_ok=True)
        cells = make_cells(
            4, base_seed=42, kind="bulk", params=_BULK, pcap_dir=str(pcap_dir)
        )
        merged = str(pcap_dir / "merged.pcap")
        return run_fleet(cells, workers=workers, merge_pcap_path=merged)

    reference = run_with_pcaps(1)
    assert reference.merged_pcap_file_digest is not None
    assert (
        pcap_file_digest(reference.merged_pcap_path)
        == reference.merged_pcap_file_digest
    )
    packets = read_pcap(reference.merged_pcap_path)
    assert len(packets) == reference.total_packets
    for workers in SHARD_COUNTS[1:]:
        result = run_with_pcaps(workers)
        assert result.merged_pcap_file_digest == reference.merged_pcap_file_digest


def test_cell_results_come_back_in_cell_index_order():
    cells = make_cells(5, base_seed=2, kind="bulk", params=_BULK)
    result = run_fleet(cells, workers=3)
    assert [cell.index for cell in result.cells] == list(range(5))


def test_fleet_totals_and_telemetry_merge():
    cells = make_cells(3, base_seed=9, kind="bulk", params=_BULK)
    result = run_fleet(cells, workers=2)
    assert result.total_events == sum(cell.events for cell in result.cells)
    assert result.total_sessions == 3
    snapshot = result.telemetry.snapshot()
    assert snapshot["fleet"]["cells"] == 3
    assert snapshot["fleet"]["events"] == result.total_events
    assert snapshot["fleet"]["shards"] == 2


def test_fleet_result_is_a_function_of_its_cells():
    """No host time rides in the result: one worker or two, every field
    but the shard bookkeeping is equal, merged telemetry included."""
    cells = make_cells(3, base_seed=9, kind="bulk", params=_BULK)
    one = run_fleet(cells, workers=1)
    two = run_fleet(cells, workers=2)
    assert (one.workers, len(one.shards)) == (1, 1)
    assert (two.workers, len(two.shards)) == (2, 2)
    for field in dataclasses.fields(one):
        if field.name not in ("workers", "shards", "telemetry"):
            assert getattr(one, field.name) == getattr(two, field.name), field.name
    states = []
    for result in (one, two):
        state = result.telemetry.export_state()
        assert state["counters"]["fleet"].pop("shards") == result.workers
        states.append(state)
    assert states[0] == states[1]


def test_unknown_cell_kind_is_rejected():
    from repro.fleet import CellSpec

    with pytest.raises(ValueError, match="unknown cell kind"):
        run_cell(CellSpec(index=0, kind="nope"))


def test_empty_cell_list_is_rejected():
    with pytest.raises(ValueError):
        run_fleet([], workers=2)
