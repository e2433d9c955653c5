"""Exact per-op costs of the standing workloads, pinned at quarter scale.

Host time on a shared VM spreads by 10-40 % from run to run, so a
change that saves 3 % cannot show in ``bench measure`` alone.  What the
program *does* repeats exactly: how many Python calls one drive makes,
and in which layer, how many events and timers the simulator runs, how
many TCP segments go out and how many ChaCha20 keystream passes the
AEAD makes.  Each of the five standing workloads is built (seed 1,
first world, scale 0.25, as in ``test_bench_digests.py``) and driven
once as a warm-up, so first-use tables and memos exist whether this
file runs alone or inside the whole suite; then the identical world is
built again and driven under cProfile with the garbage collector off,
and the counts are compared with the workload's last row in
``costs_history.jsonl``.

``costs_history.jsonl`` is the committed cost trajectory, one row per
(commit, workload) in commit order, append-only: a change that moves a
count appends a row per workload (commit subject, calls per layer, the
six counts, ``src/`` lines) and says why in CHANGES.md; no row is ever
edited.  Rows before per-layer calls were taken hold ``null`` there.
The ``src/`` line count is recorded, not checked.  Calls are grouped by
``src/repro/<layer>``, numpy, builtins (every other C function) and
other (the standard library, ``bench/``, generated dataclass methods);
the test prints each layer's calls per op and per delivered byte (``-s``).

Python 3.12 inlines comprehensions (PEP 709) and other versions differ
in what makes a frame, so the calls are pinned for CPython 3.11 only
(measured with numpy 2.4, whose Python-level helpers are counted too;
re-measure on a numpy upgrade).  A ``tracemalloc`` peak per drive was
measured and left out: it repeats exactly across processes and hash
seeds, but moves by up to 600 bytes with what the process ran before.
Reads ``bench/``, changes nothing there.
"""

import cProfile
import gc
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench.harness import WARMUP_SCALE, sub_seed
from bench.trace import NoTrace
from bench.workloads import WORKLOADS
from repro.analysis.sanitizers import reset_process_globals

HISTORY = Path(__file__).with_name("costs_history.jsonl")
#: The counts of one quarter-scale drive at seed 1, first world, after
#: the warm-up: Python calls, events processed, callbacks queued (timers
#: scheduled and link deliveries posted), TCP segments sent, lane
#: keystream passes, numpy keystream passes.
COUNTS = ("calls", "events", "timers", "segments", "lane_passes", "numpy_passes")
ROWS = [json.loads(line) for line in HISTORY.read_text().splitlines()]
#: workload -> its last row: what a drive costs at this commit.
PINNED = {row["workload"]: row for row in ROWS}

pytestmark = pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="call counts are pinned for CPython 3.11: PEP 709 (3.12) inlines "
    "comprehensions and other versions make frames differently",
)


def _is(code, path, name):
    """Whether a profiled ``code`` is the function ``name`` of the file
    ending with ``path`` (builtins are profiled as strings)."""
    return not isinstance(code, str) and code.co_name == name and code.co_filename.endswith(path)


def _calls(entries, path, name):
    return sum(entry.callcount for entry in entries if _is(entry.code, path, name))


def _layer(code) -> str:
    """Which layer a profiled function belongs to (builtins are profiled
    as strings)."""
    if isinstance(code, str):
        return "numpy" if "numpy" in code else "builtins"
    path = code.co_filename
    if "/numpy/" in path:
        return "numpy"
    _, found, inside = path.partition("/src/repro/")
    return inside.split("/")[0].removesuffix(".py") if found else "other"


def test_every_standing_workload_has_costs():
    assert set(PINNED) == set(WORKLOADS) and WARMUP_SCALE == 0.25
    for row in PINNED.values():
        assert sum(row["layers"].values()) == row["calls"] and row["src_lines"]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_quarter_scale_drive_costs_are_the_pinned_ones(name):
    workload = WORKLOADS[name]
    reset_process_globals()
    workload.drive(workload.build(sub_seed(1, 0), WARMUP_SCALE), NoTrace())
    reset_process_globals()
    world = workload.build(sub_seed(1, 0), WARMUP_SCALE)
    # No collection during the drive: a collection's callbacks (hypothesis
    # registers one once any property test has run) would be counted.
    gc.collect()
    gc.disable()
    profile = cProfile.Profile()
    try:
        profile.enable()
        outcome = workload.drive(world, NoTrace())
    finally:
        profile.disable()
        gc.enable()
    entries = profile.getstats()
    assert outcome.failures == []
    layers = Counter()
    for entry in entries:
        layers[_layer(entry.code)] += entry.callcount
    costs = dict(zip(COUNTS, (
        sum(layers.values()),
        world.sim.events_processed,
        # Callbacks queued: a link delivery is posted, a timer scheduled.
        _calls(entries, "netsim/engine.py", "schedule")
        + _calls(entries, "netsim/engine.py", "post"),
        # One ``Datagram.originate`` per TCP segment handed to IP (an
        # RST for an unknown connection is not counted).
        _calls(entries, "netsim/packet.py", "originate"),
        _calls(entries, "crypto/chacha20.py", "chacha20_keystream_lanes"),
        _calls(entries, "crypto/chacha20_fast.py", "chacha20_keystream_multi"),
    )))
    print(f"\n{name}: {outcome.completed} ops, {outcome.app_bytes:,} bytes delivered")
    for layer, calls in layers.most_common():
        print(f"  {layer:<10}{calls:>9,} calls{calls / outcome.completed:>12,.1f}/op"
              f"{calls / outcome.app_bytes:>10.4f}/byte")
    pinned = PINNED[name]
    assert costs == {key: pinned[key] for key in COUNTS}
    assert dict(layers) == pinned["layers"]
