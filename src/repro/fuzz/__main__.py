"""CLI: ``python -m repro.fuzz --seed 42 --iterations 7000``.

Exits nonzero if any input escaped the typed exception hierarchy;
crasher repro files go to ``--crash-dir`` so CI can upload them.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.fuzz.harness import DEFAULT_ITERATIONS, run_campaign, save_crashers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="repro.fuzz")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--iterations",
        type=int,
        default=DEFAULT_ITERATIONS,
        help="inputs to drive",
    )
    parser.add_argument("--format", action="append", dest="formats", default=None)
    parser.add_argument("--crash-dir", default="fuzz-crashers")
    parser.add_argument("--json", action="store_true", help="print the full report")
    options = parser.parse_args(argv)

    report = run_campaign(
        seed=options.seed, iterations=options.iterations, formats=options.formats
    )
    if options.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(
            f"seed={report.seed} inputs={report.iterations} "
            f"accepted={report.accepted} rejected={report.rejected} "
            f"crashers={len(report.crashers)} digest={report.digest[:16]}"
        )
    if report.crashers:
        paths = save_crashers(report, options.crash_dir)
        for path in paths:
            print(f"crasher: {path}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
