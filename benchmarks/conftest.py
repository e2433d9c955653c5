"""Shared infrastructure for the reproduction benchmarks.

Each benchmark regenerates one table or figure of the paper (see
DESIGN.md's experiment index) and prints the rows/series the paper
reports.  Simulated metrics (goodput, round trips, counts) are the
deliverable; wall-clock timing via pytest-benchmark is reported for the
heavy experiments with a single round (re-running a 60-second simulated
download five times would measure nothing new).

Alongside every printed table, ``report()`` writes a machine-readable
``BENCH_<test>.json`` metrics file (telemetry counters, per-connection
``TCP_INFO`` snapshots, the session event timeline — see
``repro.obs``).  Control it with:

- ``REPRO_METRICS_DIR`` — output directory (default
  ``benchmarks/_metrics``);
- ``REPRO_METRICS=0`` — disable the JSON export entirely.

Host cost per layer is not this suite's job: ``python -m bench`` is the
one performance instrument (see ``bench/README.md``).
"""

import os
import re

import pytest

from repro.obs import collect_metrics, write_metrics_json

FULL_SCALE = bool(os.environ.get("REPRO_FULL_FIG4"))

METRICS_ENABLED = os.environ.get("REPRO_METRICS", "1") != "0"
METRICS_DIR = os.environ.get(
    "REPRO_METRICS_DIR", os.path.join(os.path.dirname(__file__), "_metrics")
)


def _current_test_name() -> str:
    current = os.environ.get("PYTEST_CURRENT_TEST", "")
    name = current.split("::")[-1].split(" ")[0] or "unknown"
    return re.sub(r"[^A-Za-z0-9_.\-\[\]]", "_", name).replace("[", "-").rstrip("]")


def report(title: str, lines, *, sim=None, sessions=(), links=(), extra=None) -> None:
    """Print a paper-style result block and write its metrics JSON.

    ``sim``/``sessions``/``links``/``extra`` feed the ``BENCH_*.json``
    export: pass whatever the benchmark has on hand and the JSON gains
    counters, per-connection TCP snapshots, and the event timeline.
    """
    bar = "=" * 72
    print(f"\n{bar}\n{title}\n{bar}")
    if isinstance(lines, str):
        lines = lines.splitlines()
    for line in lines:
        print(line)
    print(bar)
    if METRICS_ENABLED:
        metrics = collect_metrics(
            title=title, sim=sim, sessions=sessions, links=links, extra=extra
        )
        path = os.path.join(METRICS_DIR, f"BENCH_{_current_test_name()}.json")
        write_metrics_json(path, metrics)
        print(f"[metrics] {path}")


@pytest.fixture
def once(benchmark):
    """Run a heavy simulation exactly once under pytest-benchmark."""

    def run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return run
