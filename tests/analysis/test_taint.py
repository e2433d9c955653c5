"""The whole-program layer: call graph, taint fixpoint, corpus gate."""

from pathlib import Path

import pytest

from repro.analysis.callgraph import CallGraph, SymbolTable, module_dotted_name
from repro.analysis.engine import iter_python_files, load_module, run
from repro.analysis.rules import default_rules
from repro.analysis.taint import analyze, find_sources

REPO = Path(__file__).resolve().parent.parent.parent
FIXTURES = Path(__file__).resolve().parent / "fixtures"
TAINT_FIXTURES = FIXTURES / "taint"

BAD_CORPUS = {
    "TAINT001": TAINT_FIXTURES / "core" / "taint001_bad.py",
    "TAINT002": TAINT_FIXTURES / "core" / "taint002_bad.py",
}
CLEAN_CORPUS = [TAINT_FIXTURES / "core" / "taint_clean.py"]


def _family_findings(paths, rule_id):
    report = run(list(paths), default_rules(), root=REPO)
    return [f for f in report.findings if f.rule == rule_id]


# ----------------------------------------------------------------------
# Seeded-violation gate: each family catches every planted flow and
# reports nothing on the clean corpus.
# ----------------------------------------------------------------------

@pytest.mark.parametrize("rule_id", sorted(BAD_CORPUS))
def test_seeded_corpus_catches_at_least_three(rule_id):
    findings = _family_findings([BAD_CORPUS[rule_id]], rule_id)
    assert len(findings) >= 3, [f.format() for f in findings]


@pytest.mark.parametrize("rule_id", sorted(BAD_CORPUS))
def test_clean_corpus_has_zero_false_positives(rule_id):
    findings = _family_findings(CLEAN_CORPUS, rule_id)
    assert findings == [], [f.format() for f in findings]


def test_planted_sink_varieties_are_distinguished():
    """The TAINT001 fixture plants five distinct sink shapes; every one
    must be reported (alloc, range, timer, repetition, attribute)."""
    findings = _family_findings([BAD_CORPUS["TAINT001"]], "TAINT001")
    blob = " ".join(f.message for f in findings)
    for marker in ("size into bytearray", "range() bound", "delay into",
                   "repetition factor", "resource attribute"):
        assert marker in blob, blob


def test_taint002_covers_pickle_eval_seed_and_telemetry():
    findings = _family_findings([BAD_CORPUS["TAINT002"]], "TAINT002")
    blob = " ".join(f.message for f in findings)
    for marker in ("pickle.loads", "eval()", "seeding", "telemetry key"):
        assert marker in blob, blob


def test_findings_carry_interprocedural_provenance():
    findings = _family_findings([BAD_CORPUS["TAINT001"]], "TAINT001")
    assert all("tainted by" in f.message for f in findings)
    assert any("decode_header()" in f.message for f in findings)


# ----------------------------------------------------------------------
# Whole-program layer over the real tree
# ----------------------------------------------------------------------

def _real_program():
    modules = []
    for path in iter_python_files([REPO / "src" / "repro"]):
        module = load_module(path, root=REPO / "src")
        if module is not None:
            modules.append(module)
    table = SymbolTable.build(modules)
    return modules, table


def test_callgraph_resolves_cross_module_calls():
    _modules, table = _real_program()
    graph = CallGraph.build(table)
    # The control channel dispatch calls into the tcp layer.
    sites = graph.sites.get("repro.core.plugins.runtime.install_plugin", ())
    callees = {c for site in sites for c in site.callees}
    assert "repro.core.plugins.vm.BytecodeProgram.from_bytes" in callees
    assert (
        "repro.tcp.connection.TcpConnection.set_congestion_control" in callees
    )


def test_sources_include_guarded_and_decorated_parsers():
    _modules, table = _real_program()
    sources = find_sources(table)
    # Plain with-block parser.
    assert any(q.endswith("options.decode_options") for q in sources)
    # Guard-decorator (@_armored) parser in core framing.
    assert any(q.endswith("framing.decode_stream_data") for q in sources)
    # Fuzz mutators are sources but their params stay trusted.
    mutate = [q for q in sources if ".fuzz.mutate." in q]
    assert mutate and all(
        not sources[q].taint_params for q in mutate
    )


def test_real_tree_taint_is_clean_after_hardening():
    _modules, table = _real_program()
    graph = CallGraph.build(table)
    result = analyze(table, graph)
    assert result.sinks == [], [
        f"{hit.module.relpath}:{hit.line} {hit.detail}"
        for hit in result.sinks
    ]


def test_uncapping_user_timeout_is_caught(tmp_path):
    """Fails-on-old-code proof at the analyzer level: reverting the
    UserTimeout cap makes TAINT001 flag the session dispatch again."""
    session_path = REPO / "src" / "repro" / "core" / "session.py"
    source = session_path.read_text(encoding="utf-8")
    capped = "min(option.timeout_seconds(), MAX_USER_TIMEOUT_SECONDS)"
    assert capped in source
    regressed_root = tmp_path / "src"
    for path in iter_python_files([REPO / "src" / "repro"]):
        rel = path.relative_to(REPO / "src")
        target = regressed_root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        text = path.read_text(encoding="utf-8")
        if path == session_path:
            text = text.replace(capped, "option.timeout_seconds()")
        target.write_text(text, encoding="utf-8")
    modules = []
    for path in iter_python_files([regressed_root]):
        module = load_module(path, root=regressed_root)
        if module is not None:
            modules.append(module)
    table = SymbolTable.build(modules)
    result = analyze(table, CallGraph.build(table))
    hits = [
        hit for hit in result.sinks
        if hit.module.relpath.endswith("core/session.py")
        and hit.sink == "timer"
    ]
    assert hits, [f"{h.module.relpath}:{h.line}" for h in result.sinks]


def test_module_dotted_name_strips_init():
    assert module_dotted_name("repro/core/__init__.py") == "repro.core"
    assert module_dotted_name("repro/tcp/rto.py") == "repro.tcp.rto"
