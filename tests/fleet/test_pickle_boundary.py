"""Pickle round-trips for every shard-boundary object.

This is the cross-check test the FP002 lint rule points at: CellSpec,
ShardSpec, CellResult, and ShardResult all cross the multiprocessing
boundary, so each must survive ``pickle.dumps``/``loads`` with every
field intact — at the highest protocol (what ``multiprocessing`` uses)
and at protocol 0 (the pickiest about reducibility).
"""

import pickle

import pytest

from repro.fleet import (
    CellResult,
    CellSpec,
    PICKLE_BOUNDARY,
    ShardResult,
    ShardSpec,
    derive_cell_seed,
)


def _specimens():
    cell_spec = CellSpec(
        index=3,
        kind="bulk",
        seed=derive_cell_seed(42, 3),
        params={"payload_bytes": 1000, "flap_at": 0.5},
        shake_seed=9,
        pcap_path="/tmp/cell_0003.pcap",
    )
    shard_spec = ShardSpec(
        index=1,
        shards=4,
        cells=[cell_spec],
    )
    cell_result = CellResult(
        index=3,
        kind="bulk",
        event_digest="ab" * 32,
        pcap_digest="cd" * 32,
        clock=6.0,
        events=123,
        packets=64,
        sessions=1,
        telemetry={"counters": {"fleet": {"cells": 1}}},
        pcap_path="/tmp/cell_0003.pcap",
    )
    shard_result = ShardResult(
        index=1,
        cells=[cell_result],
    )
    return {
        "CellSpec": cell_spec,
        "ShardSpec": shard_spec,
        "CellResult": cell_result,
        "ShardResult": shard_result,
    }


@pytest.mark.parametrize("name", sorted(_specimens()))
@pytest.mark.parametrize(
    "protocol", [0, pickle.HIGHEST_PROTOCOL], ids=["p0", "pmax"]
)
def test_boundary_object_round_trips(name, protocol):
    specimen = _specimens()[name]
    clone = pickle.loads(pickle.dumps(specimen, protocol=protocol))
    assert clone == specimen
    assert clone.__dict__ == specimen.__dict__


def test_every_declared_boundary_name_has_a_specimen_here():
    """A class added to PICKLE_BOUNDARY without a round-trip specimen in
    this file fails here (and FP002 would flag a missing registry
    entry)."""
    assert set(PICKLE_BOUNDARY) == set(_specimens())
