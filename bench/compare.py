"""``python -m bench compare A.json B.json``: one verdict per (metric,
workload), under the bounds ``BENCHMARK.json`` fixes.

A is the base of every ratio.  A host metric is ``worse``/``better``
when B's median moved against/along its direction by more than the
bound, ``same`` otherwise, and ``unresolved`` when either side's own
repeat-to-repeat quartile spread is wider than the bound (the runs
cannot tell a change of that size from noise).  ``sim_*`` metrics and
``sim_digest`` of two runs on the same seed and scale compare exactly:
any difference is a behaviour change, however small.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

Row = Tuple[str, str, str, str]


def _spread(row: dict) -> float:
    if "q1" not in row or not row["value"]:
        return 0.0
    return (row["q3"] - row["q1"]) / abs(row["value"])


def _describe(row: dict) -> str:
    text = f"{row['value']:.6g}"
    if "q1" in row:
        text += f" [{row['q1']:.6g}, {row['q3']:.6g}]"
    return text


def verdict(name: str, better: str, bound: float, a: dict, b: dict,
            exact: bool) -> str:
    if a["value"] == b["value"]:
        return "same"
    improved = (b["value"] < a["value"]) == (better == "lower")
    if exact and name.startswith("sim_"):
        return "better" if improved else "worse"
    if max(_spread(a), _spread(b)) > bound:
        return "unresolved"
    if abs(b["value"] - a["value"]) <= bound * abs(a["value"]):
        return "same"
    return "better" if improved else "worse"


def compare(a: dict, b: dict, spec: dict) -> List[Row]:
    """(workload, metric, verdict, detail) rows for two ``run`` results."""
    exact = (a["seed"], a["scale"]) == (b["seed"], b["scale"])
    rows: List[Row] = []
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in a["workloads"] or workload not in b["workloads"]:
            continue
        side_a, side_b = a["workloads"][workload], b["workloads"][workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            row_a, row_b = side_a["end_to_end"][name], side_b["end_to_end"][name]
            ratio = row_b["value"] / row_a["value"] if row_a["value"] else float("nan")
            rows.append((
                workload, name,
                verdict(name, metric["better"], metric["bound"], row_a, row_b, exact),
                f"A {_describe(row_a)}  B {_describe(row_b)}  {metric['unit']}  "
                f"B/A {ratio:.4f} (base A)",
            ))
        if exact:
            same = side_a["sim_digest"] == side_b["sim_digest"]
            rows.append((
                workload, "sim_digest", "same" if same else "worse",
                f"A {side_a['sim_digest']}  B {side_b['sim_digest']}",
            ))
    return rows


def compare_files(path_a: str, path_b: str, spec: dict) -> int:
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    rows = compare(a, b, spec)
    tally: Dict[str, int] = {}
    for workload, name, outcome, detail in rows:
        tally[outcome] = tally.get(outcome, 0) + 1
        print(f"{workload:16s} {name:20s} {outcome:10s} {detail}")
    print("  ".join(f"{count} {outcome}" for outcome, count in sorted(tally.items())))
    return 1 if tally.get("worse") or tally.get("unresolved") else 0
