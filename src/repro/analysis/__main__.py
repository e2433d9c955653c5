"""CLI entry point: ``python -m repro.analysis``.

Exit codes: 0 clean, 1 findings (or sanitizer mismatch), 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
import textwrap
from pathlib import Path
from typing import List, Optional

from repro.analysis.engine import run
from repro.analysis.rules import default_rules, rule_by_id
from repro.analysis.sanitizers import builtin_smoke_scenario, check_determinism


def _explain(rule_id: str) -> int:
    rule = rule_by_id(rule_id)
    if rule is None:
        known = ", ".join(r.id for r in default_rules())
        print(f"unknown rule {rule_id!r}; known rules: {known}", file=sys.stderr)
        return 2
    print(f"{rule.id}: {rule.title}")
    print()
    print(textwrap.dedent(rule.rationale).strip())
    print()
    print(f"Suppress a single line with: # repro: noqa-{rule.id}")
    return 0


def _list_rules() -> int:
    for rule in default_rules():
        print(f"{rule.id}  {rule.title}")
    return 0


def _sanitize(mode: str, shake: Optional[int], runs: int) -> int:
    if mode != "smoke":
        print(f"unknown sanitizer scenario {mode!r} (only: smoke)", file=sys.stderr)
        return 2
    report = check_determinism(
        builtin_smoke_scenario, runs=runs, shake_seed=shake
    )
    print(report.format())
    return 0 if report.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="repo-aware static lints + determinism sanitizers",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files/directories to lint (default: src)",
    )
    parser.add_argument("--json", action="store_true", help="JSON report")
    parser.add_argument(
        "--explain", metavar="RULE", help="print a rule's rationale and exit"
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list rule ids and exit"
    )
    parser.add_argument(
        "--sanitize",
        metavar="SCENARIO",
        help="run the determinism sanitizer (scenario: smoke) instead of linting",
    )
    parser.add_argument(
        "--shake",
        type=int,
        metavar="SEED",
        help="enable schedule-shake mode with this seed (with --sanitize)",
    )
    parser.add_argument(
        "--runs", type=int, default=2, help="sanitizer runs to compare (default 2)"
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=Path.cwd(),
        help="repository root for relative paths and registry checks",
    )
    args = parser.parse_args(argv)

    if args.explain:
        return _explain(args.explain)
    if args.list_rules:
        return _list_rules()
    if args.sanitize:
        return _sanitize(args.sanitize, args.shake, args.runs)

    paths = args.paths or [args.root / "src"]
    missing = [path for path in paths if not path.exists()]
    if missing:
        for path in missing:
            print(f"no such path: {path}", file=sys.stderr)
        return 2
    report = run(paths, default_rules(), root=args.root)
    print(report.to_json() if args.json else report.format_human())
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
