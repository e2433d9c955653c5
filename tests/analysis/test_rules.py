"""The lint engine and the seven repo-aware rules."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.engine import Module, load_module, run
from repro.analysis.rules import default_rules, rule_by_id

REPO = Path(__file__).resolve().parent.parent.parent
FIXTURES = Path(__file__).resolve().parent / "fixtures"

EXPECTED = {
    "DET001": FIXTURES / "det001_bad.py",
    "DET002": FIXTURES / "det002_bad.py",
    "SEC001": FIXTURES / "core" / "sec001_bad.py",
    "SEC002": FIXTURES / "core" / "sec002_bad.py",
    "SEC003": FIXTURES / "sec003_bad.py",
    "OBS001": FIXTURES / "obs001_bad.py",
    "REL001": FIXTURES / "repro" / "overload" / "rel001_bad.py",
}


def _rules_hit(path: Path) -> set:
    report = run([path], default_rules(), root=REPO)
    return {finding.rule for finding in report.findings}


@pytest.mark.parametrize("rule_id", sorted(EXPECTED))
def test_each_fixture_trips_its_rule(rule_id):
    assert rule_id in _rules_hit(EXPECTED[rule_id])


def test_rel001_flags_each_uncounted_path_and_exempts_getters():
    report = run([EXPECTED["REL001"]], default_rules(), root=REPO)
    flagged = [f.message for f in report.findings if f.rule == "REL001"]
    assert any("reject_overload()" in message for message in flagged)
    assert any("shed_oldest()" in message for message in flagged)
    assert not any("shed_count" in message for message in flagged)


def test_clean_fixture_stays_clean():
    report = run([FIXTURES / "clean_ok.py"], default_rules(), root=REPO)
    assert report.ok, report.format_human()


def test_src_tree_is_clean():
    report = run([REPO / "src"], default_rules(), root=REPO)
    assert report.ok, report.format_human()


def test_noqa_suppresses_exactly_the_named_rule(tmp_path):
    bad = tmp_path / "mod.py"
    bad.write_text(
        "import time\n"
        "\n"
        "def now():\n"
        "    return time.time()  # repro: noqa-DET001 - log naming only\n"
        "\n"
        "def later():\n"
        "    return time.time()\n",
        encoding="utf-8",
    )
    report = run([bad], default_rules(), root=tmp_path)
    assert len(report.findings) == 1
    assert report.findings[0].line == 7


def test_noqa_inside_string_literal_does_not_suppress(tmp_path):
    bad = tmp_path / "mod.py"
    bad.write_text(
        "import time\n"
        "\n"
        "def now():\n"
        '    return time.time(), "# repro: noqa-DET001"\n',
        encoding="utf-8",
    )
    report = run([bad], default_rules(), root=tmp_path)
    assert [finding.rule for finding in report.findings] == ["DET001"]


HOST_CLOCKS = ("perf_counter", "perf_counter_ns", "process_time", "monotonic")


def test_det001_flags_every_host_clock_call_in_its_fixture():
    report = run([EXPECTED["DET001"]], default_rules(), root=REPO)
    flagged = " ".join(f.message for f in report.findings if f.rule == "DET001")
    for name in HOST_CLOCKS:
        assert f"time.{name}()" in flagged


@pytest.mark.parametrize("name", HOST_CLOCKS)
@pytest.mark.parametrize(
    "form", ["import time\nT = time.{0}()\n", "from time import {0}\nT = {0}()\n"]
)
def test_det001_has_no_profiling_exemption(tmp_path, form, name):
    bad = tmp_path / "mod.py"
    bad.write_text(form.format(name), encoding="utf-8")
    report = run([bad], default_rules(), root=tmp_path)
    assert [finding.rule for finding in report.findings] == ["DET001"]


def test_src_reads_no_host_clock_profiler_or_environment():
    """The invariant behind DET001, by text: host time is `bench/`'s job.
    Mirrors the CI `analysis` guard; rules.py only names what it bans."""
    pattern = re.compile(
        r"perf_counter|process_time|monotonic\(|cProfile|os\.environ|getenv"
    )
    hits = [
        f"{path.relative_to(REPO)}:{number}"
        for path in sorted((REPO / "src" / "repro").rglob("*.py"))
        if path.name != "rules.py"
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert not hits, hits


def test_det002_would_catch_unsorting_the_route_tiebreak():
    """Fails-on-old-code guard: the pre-fix ``for owner in owner_names``
    (hash-order set iteration feeding route choice) is exactly what
    DET002 flags; the committed ``sorted(...)`` is what keeps it green."""
    topology = REPO / "src" / "repro" / "netsim" / "topology.py"
    source = topology.read_text(encoding="utf-8")
    assert "for owner in sorted(owner_names):" in source
    regressed = source.replace(
        "for owner in sorted(owner_names):", "for owner in owner_names:"
    )
    module = load_module(topology, REPO)
    assert module is not None
    import ast

    regressed_module = Module(
        path=topology,
        relpath=module.relpath,
        source=regressed,
        tree=ast.parse(regressed),
        noqa={},
    )
    det002 = rule_by_id("DET002")
    assert not list(det002.check(module))
    findings = list(det002.check(regressed_module))
    assert findings and all(f.rule == "DET002" for f in findings)


def test_sec003_accepts_reraise_and_narrow_catches(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "from repro.utils.errors import DecodeError\n"
        "\n"
        "def ok_narrow(cb):\n"
        "    try:\n"
        "        cb()\n"
        "    except DecodeError:\n"
        "        pass\n"
        "\n"
        "def ok_reraise(cb):\n"
        "    try:\n"
        "        cb()\n"
        "    except Exception:\n"
        "        raise\n",
        encoding="utf-8",
    )
    report = run([mod], default_rules(), root=tmp_path)
    assert not [f for f in report.findings if f.rule == "SEC003"]


def test_sec001_accepts_guard_decorator_and_delegation(tmp_path):
    scoped = tmp_path / "core"
    scoped.mkdir()
    mod = scoped / "mod.py"
    mod.write_text(
        "from repro.utils.errors import decode_guard\n"
        "\n"
        "def _armored(fn):\n"
        "    def wrapper(data):\n"
        "        with decode_guard(fn.__name__):\n"
        "            return fn(data)\n"
        "    return wrapper\n"
        "\n"
        "@_armored\n"
        "def decode_alpha(data):\n"
        "    return data[0]\n"
        "\n"
        "def decode_beta(data):\n"
        "    with decode_guard('beta'):\n"
        "        return data[1]\n"
        "\n"
        "def decode_gamma(data):\n"
        "    '''Delegates to the guarded sibling.'''\n"
        "    return decode_beta(data)\n",
        encoding="utf-8",
    )
    report = run([mod], default_rules(), root=tmp_path)
    assert not [f for f in report.findings if f.rule == "SEC001"]


def test_det002_allows_order_insensitive_folds(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "def fold(values: set):\n"
        "    return sorted(values), min(values), sum(values), len(values)\n",
        encoding="utf-8",
    )
    report = run([mod], default_rules(), root=tmp_path)
    assert not [f for f in report.findings if f.rule == "DET002"]


def test_det002_infers_dict_of_sets_values(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "def routes(destinations: dict[str, set[str]]):\n"
        "    picks = []\n"
        "    for network, owners in destinations.items():\n"
        "        for owner in owners:\n"
        "            picks.append(owner)\n"
        "    return picks\n",
        encoding="utf-8",
    )
    report = run([mod], default_rules(), root=tmp_path)
    assert [f.rule for f in report.findings] == ["DET002"]


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------

def _cli(*args):
    env_path = str(REPO / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        capture_output=True,
        text=True,
        cwd=REPO,
        env={"PYTHONPATH": env_path, "PATH": "/usr/bin:/bin:/usr/local/bin"},
    )


def test_cli_clean_repo_exits_zero():
    proc = _cli("src")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_cli_fixture_exits_nonzero_with_json():
    proc = _cli(str(EXPECTED["DET001"]), "--json")
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert payload["ok"] is False
    assert payload["counts"].get("DET001")
    assert payload["findings"][0]["rule"] == "DET001"


def test_cli_explain_every_rule():
    for rule in default_rules():
        proc = _cli("--explain", rule.id)
        assert proc.returncode == 0
        assert rule.id in proc.stdout
        assert rule.title in proc.stdout


def test_cli_explain_unknown_rule_is_usage_error():
    proc = _cli("--explain", "NOPE999")
    assert proc.returncode == 2


def test_cli_list_rules_names_every_rule():
    proc = _cli("--list-rules")
    assert proc.returncode == 0
    listed = [line.split()[0] for line in proc.stdout.splitlines()]
    assert sorted(listed) == sorted(EXPECTED)
