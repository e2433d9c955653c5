"""Engine edge cases: skips, waiver spreading, crash isolation, output modes."""

import json
from pathlib import Path

from repro.analysis.engine import Rule, run
from repro.analysis.rules import default_rules, rule_by_id

REPO = Path(__file__).resolve().parent.parent.parent


# ----------------------------------------------------------------------
# Unparseable input
# ----------------------------------------------------------------------

def test_syntax_error_file_is_skipped_not_fatal(tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def oops(:\n    pass\n", encoding="utf-8")
    fine = tmp_path / "fine.py"
    fine.write_text("import time\nNOW = time.time()\n", encoding="utf-8")
    report = run([tmp_path], default_rules(), root=tmp_path)
    assert report.files_skipped == ["broken.py"]
    # The parseable sibling was still linted.
    assert any(f.rule == "DET001" for f in report.findings)
    assert "unparseable" in report.format_human()
    assert json.loads(report.to_json())["files_skipped"] == ["broken.py"]


# ----------------------------------------------------------------------
# Waivers on multi-line statements
# ----------------------------------------------------------------------

def test_noqa_spreads_across_a_wrapped_statement(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "import time\n"
        "\n"
        "def stamp():\n"
        "    return (  # repro: noqa-DET001 - wall-clock label only\n"
        "        time.time()\n"
        "    )\n",
        encoding="utf-8",
    )
    report = run([mod], default_rules(), root=tmp_path)
    assert not [f for f in report.findings if f.rule == "DET001"]
    assert report.waivers.get("DET001") == 1


def test_noqa_on_compound_header_does_not_blanket_the_body(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "import time\n"
        "\n"
        "def stamp():  # repro: noqa-DET001\n"
        "    return time.time()\n",
        encoding="utf-8",
    )
    report = run([mod], default_rules(), root=tmp_path)
    assert [f.rule for f in report.findings] == ["DET001"]


def test_waiver_debt_is_tallied_per_rule(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "import time\n"
        "\n"
        "A = time.time()  # repro: noqa-DET001 - a\n"
        "B = time.time()  # repro: noqa-DET001 - b\n"
        "C = 0  # repro: noqa\n",
        encoding="utf-8",
    )
    report = run([mod], default_rules(), root=tmp_path)
    assert report.waivers == {"DET001": 2, "*": 1}
    assert "3 waiver(s)" in report.format_human()


def test_waiver_quoted_inside_a_comment_is_not_a_waiver(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "import time\n"
        "\n"
        "A = time.time()  #: see # repro: noqa-DET001\n"
        "#: bare form: # repro: noqa\n",
        encoding="utf-8",
    )
    report = run([mod], default_rules(), root=tmp_path)
    assert [f.rule for f in report.findings] == ["DET001"]
    assert report.waivers == {}


# ----------------------------------------------------------------------
# Rule crash isolation
# ----------------------------------------------------------------------

class _CrashingCheck(Rule):
    id = "BOOM001"
    title = "always crashes in check"

    def check(self, module):
        raise RuntimeError("kaboom")
        yield  # pragma: no cover


class _CrashingFinalize(Rule):
    id = "BOOM002"
    title = "always crashes in finalize"

    def finalize(self, modules, root):
        raise ValueError("late kaboom")
        yield  # pragma: no cover


def test_crashing_rule_is_isolated_and_reported(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("import time\nNOW = time.time()\n", encoding="utf-8")
    rules = list(default_rules()) + [_CrashingCheck(), _CrashingFinalize()]
    report = run([mod], rules, root=tmp_path)
    # Healthy rules still produced their findings...
    assert any(f.rule == "DET001" for f in report.findings)
    # ...the crashes were captured, once per rule, and poison ok.
    assert set(report.rule_errors) == {"BOOM001", "BOOM002"}
    assert "kaboom" in report.rule_errors["BOOM001"]
    assert "late kaboom" in report.rule_errors["BOOM002"]
    assert not report.ok
    human = report.format_human()
    assert "error:" in human


def test_crashing_rule_poisons_an_otherwise_clean_run(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("X = 1\n", encoding="utf-8")
    report = run([mod], [_CrashingCheck()], root=tmp_path)
    assert not report.findings
    assert not report.ok
    payload = json.loads(report.to_json())
    assert payload["ok"] is False
    assert "BOOM001" in payload["rule_errors"]


# ----------------------------------------------------------------------
# Registry lookups
# ----------------------------------------------------------------------

def test_rule_by_id_is_case_insensitive():
    for spelled in ("det001", "Det001", "DET001", "rel001"):
        rule = rule_by_id(spelled)
        assert rule is not None
        assert rule.id == spelled.upper()
    assert rule_by_id("nope999") is None


def test_json_report_carries_waiver_debt_for_src():
    report = run([REPO / "src"], default_rules(), root=REPO)
    payload = json.loads(report.to_json())
    assert sum(payload["waivers"].values()) >= 1
    assert payload["ok"] is True
