"""Command line: ``python -m bench measure|run|compare``.

``measure`` is what ``BENCHMARK.json``'s command runs: one workload in
this process, the result object as the last line of standard output.
``run`` drives ``measure`` for every workload, untraced then traced,
one subprocess at a time, and stores the rows ``compare`` works on.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
DEFAULT_SEED = 1


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _print_rows(document: dict) -> None:
    kind = "per-layer (traced)" if document["trace"] else "end-to-end (untraced)"
    print(f"== {document['workload']}  seed {document['seed']}  {kind}  "
          f"{document['repeats']} repeats  host_slowdown {document['host_slowdown']:.3f}  "
          f"sim_digest {document['sim_digest']}")
    print(f"   op = {document['op']};  loop: {document['loop']}")
    for name, row in document["metrics"].items():
        detail = ""
        if "q1" in row:
            detail = f"  [q1 {row['q1']:.6g}  q3 {row['q3']:.6g}  n {row['n']}]"
        elif name.startswith("sim_"):
            detail = f"  [{row['n']} latency samples]"
        print(f"{name:34s} {row['value']:>14.6g} {row['unit']:6s}{detail}")
    for failure in document["failures"]:
        print(f"CHECK FAILED: {failure}")


def _measure(args: argparse.Namespace) -> int:
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    started = time.perf_counter()
    from bench import harness
    import_s = time.perf_counter() - started

    document = harness.measure(
        args.workload, args.seed, args.seconds, bool(args.trace),
        scale=args.scale, import_s=import_s,
    )
    _print_rows(document)
    if args.detail:
        with open(args.detail, "w") as handle:
            json.dump(document, handle)
    print(json.dumps(document["line"]))
    return 0 if document["line"]["correct"] else 1


def _run(args: argparse.Namespace) -> int:
    spec = _benchmark_json()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [
        workload["name"] for workload in spec["workloads"]
    ]
    result = {"seed": args.seed, "seconds": seconds, "scale": args.scale,
              "workloads": {}}
    status = 0
    out_dir = os.path.join(BENCH_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    for name in names:
        entry = result["workloads"][name] = {}
        for trace in (0, 1):
            detail = os.path.join(out_dir, f"measure_{name}_trace{trace}.json")
            if os.path.exists(detail):
                os.remove(detail)
            code = subprocess.run(
                [sys.executable, "-m", "bench", "measure",
                 "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(seconds), "--trace", str(trace),
                 "--scale", str(args.scale), "--detail", detail],
                cwd=ROOT,
            ).returncode
            if not os.path.exists(detail):
                print(f"{name}: measure exited {code} without a result",
                      file=sys.stderr)
                return 1
            with open(detail) as handle:
                document = json.load(handle)
            status = status or code
            result["fingerprint"] = document["fingerprint"]
            entry["per_layer" if trace else "end_to_end"] = document["metrics"]
            entry["traced_digest" if trace else "sim_digest"] = document["sim_digest"]
            entry.setdefault("failures", []).extend(document["failures"])
            if not trace:
                entry["attempted"] = document["line"]["attempted"]
                entry["failed"] = document["line"]["failed"]
    out = args.out or os.path.join(out_dir, f"run_seed{args.seed}.json")
    with open(out, "w") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
    print(f"wrote {out}; {'all output checks passed' if not status else 'CHECKS FAILED'}")
    return status


def _compare(args: argparse.Namespace) -> int:
    from bench.compare import compare_files
    return compare_files(args.a, args.b, _benchmark_json())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench")
    commands = parser.add_subparsers(dest="command", required=True)

    measure = commands.add_parser("measure", help="one workload, in this process")
    measure.add_argument("--workload", required=True)
    measure.add_argument("--seed", type=int, default=DEFAULT_SEED)
    measure.add_argument("--seconds", type=float, required=True)
    measure.add_argument("--trace", type=int, choices=(0, 1), default=0)
    measure.add_argument("--scale", type=float, default=1.0,
                         help="world size factor (the tests use a tiny one)")
    measure.add_argument("--detail", help="also write the full rows to this file")
    measure.set_defaults(handler=_measure)

    run = commands.add_parser("run", help="every workload, untraced then traced")
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument("--seconds", type=float,
                     help="per measure (default: BENCHMARK.json run_seconds)")
    run.add_argument("--scale", type=float, default=1.0)
    run.add_argument("--workloads", help="comma-separated subset")
    run.add_argument("--out", help="result file (default bench/out/run_seed<N>.json)")
    run.set_defaults(handler=_run)

    compare = commands.add_parser("compare", help="apply BENCHMARK.json's bounds")
    compare.add_argument("a")
    compare.add_argument("b")
    compare.set_defaults(handler=_compare)

    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
