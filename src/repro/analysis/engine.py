"""The AST lint engine behind ``python -m repro.analysis``.

Generic linters cannot check this repository's load-bearing invariants
(bit-for-bit DES determinism, the fail-closed ``decode_guard`` parser
contract, the central telemetry key registry, counted overload refusals),
so this engine runs a small registry of repo-aware rules over parsed
modules and reports typed findings.

Suppression: append a comment that starts ``# repro: noqa-RULE``
(comma-separate several rules, or bare ``# repro: noqa`` for all) to the
offending line.  Every suppression should carry a justification comment
nearby — the rules are about invariants, not style.
"""

from __future__ import annotations

import ast
import json
import re
import tokenize
from dataclasses import dataclass, field
from io import StringIO
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

#: Matched at the start of a comment token only, so a comment that merely
#: quotes the syntax (``#: see # repro: noqa-DET001``) waives nothing.
_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:-(?P<rules>[A-Z]+[0-9]+(?:\s*,\s*[A-Z]+[0-9]+)*))?",
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}: {self.rule} {self.message}"

    def as_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


@dataclass
class Module:
    """A parsed source file handed to every rule."""

    path: Path
    #: Path relative to the analysis root, using forward slashes.
    relpath: str
    source: str
    tree: ast.AST
    #: line number -> set of suppressed rule ids ({"*"} = all rules).
    noqa: Dict[int, frozenset]
    #: rule id (or "*") -> number of waiver comments naming it.
    waiver_tally: Dict[str, int] = field(default_factory=dict)

    def suppressed(self, rule: str, line: int) -> bool:
        rules = self.noqa.get(line)
        if rules is None:
            return False
        return "*" in rules or rule in rules


class Rule:
    """Base class: subclass, set the metadata, implement ``check``."""

    #: Short id, e.g. ``DET001``; referenced by ``# repro: noqa-DET001``.
    id: str = ""
    #: One-line summary shown in listings.
    title: str = ""
    #: Long-form rationale for ``--explain``.
    rationale: str = ""

    def check(self, module: Module) -> Iterator[Finding]:
        """Yield findings for one module."""
        return iter(())

    def finalize(self, modules: Sequence[Module], root: Path) -> Iterator[Finding]:
        """Yield cross-module findings after every module was checked."""
        return iter(())


def _collect_noqa(source: str) -> Dict[int, frozenset]:
    """Map line number -> suppressed rule ids, from real comment tokens.

    Tokenizing (rather than regexing raw lines) keeps a ``# repro: noqa``
    inside a string literal from suppressing anything.
    """
    noqa: Dict[int, frozenset] = {}
    try:
        tokens = tokenize.generate_tokens(StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _NOQA_RE.match(token.string)
            if not match:
                continue
            rules = match.group("rules")
            if rules:
                ids = frozenset(part.strip() for part in rules.split(","))
            else:
                ids = frozenset(("*",))
            line = token.start[0]
            noqa[line] = noqa.get(line, frozenset()) | ids
    except tokenize.TokenError:
        pass
    return noqa


#: Statement types whose waivers spread across their whole line extent.
#: Compound statements (``if``/``for``/``def``...) are excluded — a
#: waiver on their header must not blanket their entire body.
_SIMPLE_STMTS = (
    ast.Assign, ast.AnnAssign, ast.AugAssign, ast.Expr, ast.Return,
    ast.Raise, ast.Assert, ast.Delete, ast.Import, ast.ImportFrom,
    ast.Global, ast.Nonlocal, ast.Pass, ast.Break, ast.Continue,
)


def _spread_noqa(tree: ast.AST, noqa: Dict[int, frozenset]) -> Dict[int, frozenset]:
    """Extend waivers across multi-line simple statements.

    A ``# repro: noqa-RULE`` on any physical line of a wrapped call or
    assignment suppresses findings anchored to any other line of that
    same statement — rules anchor findings to whichever AST node they
    walked, which is rarely the line the trailing comment landed on.
    """
    if not noqa:
        return noqa
    spread = dict(noqa)
    for node in ast.walk(tree):
        if not isinstance(node, _SIMPLE_STMTS):
            continue
        end = getattr(node, "end_lineno", None)
        if end is None or end <= node.lineno:
            continue
        lines = range(node.lineno, end + 1)
        combined = frozenset().union(
            *(noqa.get(line, frozenset()) for line in lines)
        )
        if not combined:
            continue
        for line in lines:
            spread[line] = spread.get(line, frozenset()) | combined
    return spread


def load_module(path: Path, root: Path) -> Optional[Module]:
    """Parse one file; returns None for unreadable/unparseable input.

    Syntax errors are not this linter's job (ruff/py_compile own them),
    so a file that does not parse is skipped rather than crashing the
    whole run (the skip is still counted and reported).
    """
    try:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
    except (OSError, SyntaxError, ValueError):
        return None
    try:
        relpath = path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        relpath = path.as_posix()
    noqa = _collect_noqa(source)
    tally: Dict[str, int] = {}
    for ids in noqa.values():
        for rule_id in sorted(ids):
            tally[rule_id] = tally.get(rule_id, 0) + 1
    return Module(
        path=path,
        relpath=relpath,
        source=source,
        tree=tree,
        noqa=_spread_noqa(tree, noqa),
        waiver_tally=tally,
    )


def iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    for path in paths:
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


@dataclass
class Report:
    """The outcome of one engine run."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    rules_run: List[str] = field(default_factory=list)
    #: Files that failed to read/parse (reported, not silently dropped).
    files_skipped: List[str] = field(default_factory=list)
    #: rule id -> "<rule> in check(<relpath>): <error>" for crashed rules.
    rule_errors: Dict[str, str] = field(default_factory=dict)
    #: rule id (or "*") -> count of ``# repro: noqa`` waivers in scope.
    waivers: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.findings and not self.rule_errors

    def counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return counts

    def to_json(self) -> str:
        return json.dumps(
            {
                "ok": self.ok,
                "files_checked": self.files_checked,
                "files_skipped": sorted(self.files_skipped),
                "rules": self.rules_run,
                "rule_errors": self.rule_errors,
                "counts": self.counts(),
                "waivers": self.waivers,
                "findings": [finding.as_dict() for finding in self.findings],
            },
            indent=2,
            sort_keys=True,
        )

    def format_human(self) -> str:
        lines = [finding.format() for finding in self.findings]
        for rule_id in sorted(self.rule_errors):
            lines.append(f"error: {self.rule_errors[rule_id]}")
        if self.files_skipped:
            lines.append(
                f"skipped {len(self.files_skipped)} unparseable file(s): "
                + ", ".join(sorted(self.files_skipped))
            )
        summary = (
            f"{len(self.findings)} finding(s) in {self.files_checked} file(s)"
            if self.findings
            else f"clean: {self.files_checked} file(s), "
            f"{len(self.rules_run)} rule(s)"
        )
        if self.waivers:
            summary += f", {sum(self.waivers.values())} waiver(s)"
        lines.append(summary)
        return "\n".join(lines)


def run(
    paths: Sequence[Path],
    rules: Sequence[Rule],
    root: Optional[Path] = None,
) -> Report:
    """Run ``rules`` over every ``*.py`` under ``paths``."""
    root = root or Path.cwd()
    report = Report(rules_run=[rule.id for rule in rules])
    modules: List[Module] = []
    for file_path in iter_python_files(paths):
        module = load_module(file_path, root)
        if module is None:
            try:
                skipped = file_path.resolve().relative_to(
                    root.resolve()
                ).as_posix()
            except ValueError:
                skipped = file_path.as_posix()
            report.files_skipped.append(skipped)
            continue
        modules.append(module)
        report.files_checked += 1
        for rule_id, count in module.waiver_tally.items():
            report.waivers[rule_id] = report.waivers.get(rule_id, 0) + count
        for rule in rules:
            if rule.id in report.rule_errors:
                continue
            try:
                findings = list(rule.check(module))
            # Crash isolation: one broken rule must not take down the
            # others' findings.
            except Exception as exc:  # repro: noqa-SEC003 - isolation
                report.rule_errors[rule.id] = (
                    f"{rule.id} crashed in check({module.relpath}): {exc!r}"
                )
                continue
            for finding in findings:
                if not module.suppressed(finding.rule, finding.line):
                    report.findings.append(finding)
    for rule in rules:
        if rule.id in report.rule_errors:
            continue
        try:
            finalized = list(rule.finalize(modules, root))
        # Crash isolation, as above.
        except Exception as exc:  # repro: noqa-SEC003 - isolation
            report.rule_errors[rule.id] = (
                f"{rule.id} crashed in finalize(): {exc!r}"
            )
            continue
        for finding in finalized:
            module = next(
                (m for m in modules if m.relpath == finding.path), None
            )
            if module is not None and module.suppressed(finding.rule, finding.line):
                continue
            report.findings.append(finding)
    report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return report
