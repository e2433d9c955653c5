"""``run`` -> JSON -> ``compare``, and BENCHMARK.json against the code."""

import json
import os
import re

from bench.__main__ import ROOT, main
from bench.compare import compare, verdict
from bench.metrics import END_TO_END, PER_LAYER
from bench.workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_run_then_compare_against_itself_is_all_same(tmp_path, capsys):
    out = tmp_path / "run.json"
    assert main(["run", "--seed", "3", "--seconds", "1", "--scale", "0.05",
                 "--workloads", "small_rpc", "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    entry = result["workloads"]["small_rpc"]
    assert entry["failures"] == [] and entry["failed"] == 0
    assert set(entry["end_to_end"]) == {name for name, _, _ in END_TO_END}
    assert set(entry["per_layer"]) == {name for name, _, _ in PER_LAYER}
    rows = compare(result, result, _spec())
    assert rows and {outcome for _w, _m, outcome, _d in rows} == {"same"}
    assert main(["compare", str(out), str(out)]) == 0
    assert "sim_digest" in capsys.readouterr().out


def test_verdicts():
    a = {"value": 100.0, "q1": 99.0, "q3": 101.0}
    assert verdict("ops_per_s", "higher", 0.1, a, {**a, "value": 105.0}, True) == "same"
    assert verdict("ops_per_s", "higher", 0.1, a, {**a, "value": 80.0}, True) == "worse"
    assert verdict("ops_per_s", "higher", 0.1, a, {**a, "value": 120.0}, True) == "better"
    noisy = {"value": 90.0, "q1": 80.0, "q3": 100.0}
    assert verdict("ops_per_s", "higher", 0.1, a, noisy, True) == "unresolved"
    # Simulated metrics on the same seed compare exactly, whatever the bound.
    sim_a, sim_b = {"value": 10.0}, {"value": 10.001}
    assert verdict("sim_latency_p50_ms", "lower", 0.1, sim_a, sim_b, True) == "worse"
    assert verdict("sim_latency_p50_ms", "lower", 0.1, sim_a, sim_b, False) == "same"


def test_benchmark_json_matches_the_code_and_the_contract():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["bench"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER
    assert all(set(m) == {"name", "unit", "better", "bound"} for m in spec["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"
    )
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    assert 1 <= spec["run_seconds"] <= 60 and len(spec["per_layer"]) <= 128
