"""``repro.analysis`` — repo-aware static lints and runtime sanitizers.

Seven per-module AST rules (``rules.py``: DET001/DET002, SEC001-SEC003,
OBS001, REL001), a mypy budget ratchet and a determinism sanitizer.

Usage::

    python -m repro.analysis                 # lint src/ (exit 1 on findings)
    python -m repro.analysis --json          # machine-readable report
    python -m repro.analysis --explain DET001
    python -m repro.analysis --sanitize smoke  # determinism double-run
    python -m repro.analysis.ratchet         # mypy error-budget ratchet

See DESIGN.md section 4f for the rule catalogue and rationale.
"""

from repro.analysis.engine import Finding, Module, Report, Rule, run
from repro.analysis.rules import default_rules, rule_by_id
from repro.analysis.sanitizers import (
    DeterminismProbe,
    DeterminismReport,
    EventOrderRecorder,
    PcapDigest,
    RunDigest,
    builtin_smoke_scenario,
    check_determinism,
    reset_process_globals,
)

__all__ = [
    "DeterminismProbe",
    "DeterminismReport",
    "EventOrderRecorder",
    "Finding",
    "Module",
    "PcapDigest",
    "Report",
    "Rule",
    "RunDigest",
    "builtin_smoke_scenario",
    "check_determinism",
    "default_rules",
    "reset_process_globals",
    "rule_by_id",
    "run",
]
