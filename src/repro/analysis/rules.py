"""The repo-aware rule catalogue.

Seven per-module rules, each protecting an invariant the reproduction's
claims rest on (see DESIGN.md section 4f for the full rationale
catalogue):

========  ==============================================================
DET001    No host-clock reads (profiling clocks included), environment
          reads or unseeded global randomness under ``src/``.
DET002    No iteration over ``set``-typed values without explicit
          ordering (feeds scheduling / wire output nondeterminism).
SEC001    Every public ``decode``/``parse`` entry point in the wire
          layers is wrapped in ``decode_guard``.
SEC002    No ``assert`` for untrusted-input validation in parser code
          (stripped under ``python -O``).
SEC003    No bare/broad ``except`` that can swallow
          ``ProtocolViolation``.
OBS001    Telemetry key strings come from ``repro.obs.keys``.
REL001    Every overload shed/reject path increments a count its
          object keeps.
========  ==============================================================
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.engine import Finding, Module, Rule

# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

#: Wire-layer scope for the SEC rules: the subpackages whose modules
#: parse untrusted bytes.
_WIRE_SCOPE_RE = re.compile(r"(^|/)(tcp|tls|core|quic)(/|$)")

#: Parser entry-point naming convention.
_PARSER_NAME_RE = re.compile(r"^(decode|parse)($|_)")
_PARSER_EXACT = frozenset(("from_bytes", "from_body"))


def _in_wire_scope(module: Module) -> bool:
    parent = module.relpath.rsplit("/", 1)[0] if "/" in module.relpath else ""
    return bool(_WIRE_SCOPE_RE.search(parent + "/"))


def _is_parser_name(name: str) -> bool:
    return bool(_PARSER_NAME_RE.match(name)) or name in _PARSER_EXACT


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _import_aliases(tree: ast.AST) -> Tuple[Dict[str, str], Dict[str, Tuple[str, str]]]:
    """(module alias -> module name, bound name -> (module, original name))."""
    modules: Dict[str, str] = {}
    names: Dict[str, Tuple[str, str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                modules[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                names[alias.asname or alias.name] = (node.module, alias.name)
    return modules, names


def _contains_decode_guard(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.With):
            for item in sub.items:
                expr = item.context_expr
                if isinstance(expr, ast.Call):
                    name = _dotted(expr.func)
                    if name and name.split(".")[-1] == "decode_guard":
                        return True
    return False


# ---------------------------------------------------------------------------
# DET001 — wall clock / unseeded randomness
# ---------------------------------------------------------------------------

class Det001WallClock(Rule):
    id = "DET001"
    title = "no host-clock or environment reads, no unseeded global randomness"
    rationale = """\
The discrete-event simulator is the determinism root of the whole
reproduction: the pcap/telemetry identity checks, the frozen
`sim_digest`s and the attacked-run pcap comparisons all assume a
scenario replays bit-for-bit from its seeds.  A single
`time.time()` (or `datetime.now()`, `os.urandom()`, `secrets.*`,
`uuid.uuid1/4`, or a module-level `random.*` call drawing from the
OS-seeded global RNG) silently couples a run to the host, and the
breakage only shows up later as an unreproducible trace.

All entropy must flow from `random.Random(seed)` instances constructed
from configuration, and all time from `Simulator.now`.  The `time`
module's profiling clocks and environment lookups are banned with the
rest (`_BANNED` lists each name): a result that carries host time is no
longer a function of its seeds, and an environment read is an option no
config object shows.  Host time is measured from outside the package,
by `bench/` (see `bench/README.md`).  This rule sees calls; the
environment mapping and profiler imports are held out by a text guard
(`tests/analysis/test_rules.py` and the CI `analysis` job).

Suppress with `# repro: noqa-DET001` only for code that demonstrably
never feeds the simulation (e.g. log file naming)."""

    #: module -> callables that read the wall clock / OS entropy.
    _BANNED = {
        "time": {
            "time", "time_ns",
            "perf_counter", "perf_counter_ns",
            "process_time", "process_time_ns",
            "monotonic", "monotonic_ns",
        },
        "os": {"urandom", "getrandom", "getenv"},
        "uuid": {"uuid1", "uuid4"},
    }
    _DATETIME_CTORS = {"now", "utcnow", "today"}
    _RANDOM_OK = {"Random", "SystemRandom"}

    def check(self, module: Module) -> Iterator[Finding]:
        modules, names = _import_aliases(module.tree)

        def flag(node: ast.AST, what: str) -> Finding:
            return Finding(
                rule=self.id,
                path=module.relpath,
                line=node.lineno,
                col=node.col_offset,
                message=f"{what} breaks deterministic replay; use a seeded "
                "Random / the simulated clock instead",
            )

        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute):
                base = _dotted(func.value)
                attr = func.attr
                if base is None:
                    continue
                root = modules.get(base, base if "." in base else None)
                # `import datetime` then datetime.datetime.now(...)
                if root and root.split(".")[0] == "datetime" and (
                    attr in self._DATETIME_CTORS
                ):
                    yield flag(node, f"datetime wall-clock read ({attr}())")
                    continue
                mod = modules.get(base)
                if mod is None and base in names:
                    # `from datetime import datetime` -> datetime.now()
                    src_mod, orig = names[base]
                    if src_mod == "datetime" and attr in self._DATETIME_CTORS:
                        yield flag(node, f"datetime wall-clock read ({attr}())")
                    continue
                if mod is None:
                    continue
                if mod == "random" and attr not in self._RANDOM_OK:
                    yield flag(node, f"module-level random.{attr}() (unseeded)")
                elif mod == "secrets":
                    yield flag(node, f"secrets.{attr}() (OS entropy)")
                elif attr in self._BANNED.get(mod, ()):
                    yield flag(node, f"{mod}.{attr}() reads the host (clock/entropy/environment)")
            elif isinstance(func, ast.Name) and func.id in names:
                src_mod, orig = names[func.id]
                if src_mod == "random" and orig not in self._RANDOM_OK:
                    yield flag(node, f"module-level random.{orig}() (unseeded)")
                elif src_mod == "secrets":
                    yield flag(node, f"secrets.{orig}() (OS entropy)")
                elif src_mod == "datetime" and orig in (
                    "datetime",
                    "date",
                ):
                    continue
                elif orig in self._BANNED.get(src_mod, ()):
                    yield flag(node, f"{src_mod}.{orig}() reads the host (clock/entropy/environment)")


# ---------------------------------------------------------------------------
# DET002 — unordered set iteration
# ---------------------------------------------------------------------------

_SET_NAMES = frozenset(("set", "frozenset", "Set", "FrozenSet", "AbstractSet",
                        "MutableSet"))
_DICT_NAMES = frozenset(("dict", "Dict", "defaultdict", "DefaultDict",
                         "Mapping", "MutableMapping", "OrderedDict"))
#: Order-insensitive consumers: iterating a set *inside* these is fine.
_ORDER_FREE_CALLS = frozenset(
    ("sorted", "min", "max", "sum", "any", "all", "len", "set", "frozenset")
)
#: Converting a set through these preserves its arbitrary order.
_ORDER_KEEPING_CALLS = frozenset(("list", "tuple", "iter", "enumerate"))


def _annotation_is_set(node: Optional[ast.AST]) -> bool:
    if node is None:
        return False
    if isinstance(node, ast.Name):
        return node.id in _SET_NAMES
    if isinstance(node, ast.Attribute):
        return node.attr in _SET_NAMES
    if isinstance(node, ast.Subscript):
        return _annotation_is_set(node.value)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        head = node.value.split("[", 1)[0].strip().rsplit(".", 1)[-1]
        return head in _SET_NAMES
    return False


def _annotation_is_dict_of_sets(node: Optional[ast.AST]) -> bool:
    if not isinstance(node, ast.Subscript):
        return False
    base = node.value
    base_name = base.id if isinstance(base, ast.Name) else (
        base.attr if isinstance(base, ast.Attribute) else None
    )
    if base_name not in _DICT_NAMES:
        return False
    inner = node.slice
    if isinstance(inner, ast.Tuple) and len(inner.elts) == 2:
        return _annotation_is_set(inner.elts[1])
    return False


def _expr_makes_set(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


class Det002UnorderedIteration(Rule):
    id = "DET002"
    title = "no iteration over set values without explicit ordering"
    rationale = """\
Python sets iterate in hash order: stable within one process for ints,
but dependent on PYTHONHASHSEED for strings and on allocation addresses
for objects.  A `for x in some_set:` that feeds scheduling decisions,
route selection, or wire output makes two runs of the *same seed*
diverge across processes — exactly the nondeterminism the DES is built
to exclude.  (Dict iteration is insertion-ordered since 3.7 and the DES
makes insertion order deterministic, so dicts are accepted.)

Wrap the iteration in `sorted(...)` (or iterate a list/dict instead).
Order-insensitive folds (`min`/`max`/`any`/`all`/`len`/`sum`) are
accepted.  The rule infers set-ness from literals, `set()` calls,
annotations (including `Dict[k, Set[v]]` values unpacked via
`.items()`), and `self.x = set()` assignments in the enclosing class.

Suppress with `# repro: noqa-DET002` only where order provably cannot
escape (e.g. building another set)."""

    def check(self, module: Module) -> Iterator[Finding]:
        # Class-level: attributes assigned a set anywhere in the class.
        set_attrs: Dict[ast.ClassDef, Set[str]] = {}
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                attrs: Set[str] = set()
                for sub in ast.walk(node):
                    target = None
                    if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                        target, value = sub.targets[0], sub.value
                    elif isinstance(sub, ast.AnnAssign):
                        target, value = sub.target, None
                        if _annotation_is_set(sub.annotation):
                            if (
                                isinstance(target, ast.Attribute)
                                and isinstance(target.value, ast.Name)
                                and target.value.id == "self"
                            ):
                                attrs.add(target.attr)
                            continue
                    if (
                        target is not None
                        and value is not None
                        and isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                        and _expr_makes_set(value)
                    ):
                        attrs.add(target.attr)
                set_attrs[node] = attrs

        findings: List[Finding] = []
        self._walk_scope(module, module.tree, set(), set(), set_attrs, None, findings)
        return iter(findings)

    # -- scope walker -------------------------------------------------------

    def _walk_scope(
        self,
        module: Module,
        scope: ast.AST,
        inherited_sets: Set[str],
        inherited_dicts: Set[str],
        set_attrs: Dict[ast.ClassDef, Set[str]],
        enclosing_class: Optional[ast.ClassDef],
        findings: List[Finding],
    ) -> None:
        set_names = set(inherited_sets)
        dict_names = set(inherited_dicts)

        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = scope.args
            for arg in (
                list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
            ):
                if _annotation_is_set(arg.annotation):
                    set_names.add(arg.arg)
                elif _annotation_is_dict_of_sets(arg.annotation):
                    dict_names.add(arg.arg)

        body = scope.body if hasattr(scope, "body") else []
        # Flow-insensitive local inference pass.
        for node in body:
            for sub in ast.walk(node):
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.ClassDef)) and sub is not node:
                    continue
                if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                    target = sub.targets[0]
                    if isinstance(target, ast.Name):
                        if _expr_makes_set(sub.value):
                            set_names.add(target.id)
                elif isinstance(sub, ast.AnnAssign) and isinstance(
                    sub.target, ast.Name
                ):
                    if _annotation_is_set(sub.annotation):
                        set_names.add(sub.target.id)
                    elif _annotation_is_dict_of_sets(sub.annotation):
                        dict_names.add(sub.target.id)
                elif isinstance(sub, ast.Call):
                    # d.setdefault(k, set()) marks d as a dict of sets.
                    func = sub.func
                    if (
                        isinstance(func, ast.Attribute)
                        and func.attr == "setdefault"
                        and isinstance(func.value, ast.Name)
                        and len(sub.args) == 2
                        and _expr_makes_set(sub.args[1])
                    ):
                        dict_names.add(func.value.id)
                elif isinstance(sub, ast.For):
                    # for k, v in dict_of_sets.items(): v is a set.
                    self._bind_items_target(sub.target, sub.iter, dict_names,
                                            set_names)

        def is_set_expr(expr: ast.AST) -> bool:
            if _expr_makes_set(expr):
                return True
            if isinstance(expr, ast.Name):
                return expr.id in set_names
            if (
                isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id == "self"
                and enclosing_class is not None
            ):
                return expr.attr in set_attrs.get(enclosing_class, set())
            return False

        def visit(node: ast.AST, order_free: bool) -> None:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._walk_scope(module, node, set_names, dict_names,
                                 set_attrs, enclosing_class, findings)
                return
            if isinstance(node, ast.ClassDef):
                self._walk_scope(module, node, set(), set(), set_attrs, node,
                                 findings)
                return
            if isinstance(node, ast.For) and is_set_expr(node.iter):
                findings.append(self._finding(module, node.iter))
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                for gen in node.generators:
                    if is_set_expr(gen.iter) and not order_free:
                        findings.append(self._finding(module, gen.iter))
            elif isinstance(node, ast.Call):
                name = node.func.id if isinstance(node.func, ast.Name) else None
                if name in _ORDER_KEEPING_CALLS and node.args and is_set_expr(
                    node.args[0]
                ) and not order_free:
                    findings.append(self._finding(module, node.args[0]))
                elif (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "join"
                    and node.args
                    and is_set_expr(node.args[0])
                ):
                    findings.append(self._finding(module, node.args[0]))
                inner_free = order_free or name in _ORDER_FREE_CALLS
                for child in ast.iter_child_nodes(node):
                    visit(child, inner_free)
                return
            for child in ast.iter_child_nodes(node):
                visit(child, order_free)

        for node in body:
            visit(node, False)

    @staticmethod
    def _bind_items_target(
        target: ast.AST,
        iterable: ast.AST,
        dict_names: Set[str],
        set_names: Set[str],
    ) -> None:
        if not (
            isinstance(iterable, ast.Call)
            and isinstance(iterable.func, ast.Attribute)
            and isinstance(iterable.func.value, ast.Name)
            and iterable.func.value.id in dict_names
        ):
            return
        method = iterable.func.attr
        if method == "items" and isinstance(target, ast.Tuple) and len(
            target.elts
        ) == 2 and isinstance(target.elts[1], ast.Name):
            set_names.add(target.elts[1].id)
        elif method == "values" and isinstance(target, ast.Name):
            set_names.add(target.id)

    def _finding(self, module: Module, node: ast.AST) -> Finding:
        return Finding(
            rule=self.id,
            path=module.relpath,
            line=node.lineno,
            col=node.col_offset,
            message="iteration over a set has no deterministic order; "
            "wrap in sorted(...) or restructure",
        )


# ---------------------------------------------------------------------------
# SEC001 — decode_guard on parser entry points
# ---------------------------------------------------------------------------

class Sec001DecodeGuard(Rule):
    id = "SEC001"
    title = "public decode/parse entry points must be wrapped in decode_guard"
    rationale = """\
The fail-closed wire contract (PR 4) says a parser may raise only the
typed `DecodeError` family on hostile bytes — `struct.error`,
`IndexError` and friends must never escape a decode path, because every
teardown site upstream catches `ProtocolViolation` and anything else
crashes the process an attacker talks to.  `decode_guard()` is the
enforcement boundary; a *new* parser that forgets it compiles, passes
happy-path tests, and ships a remote crash.

The rule requires every public function named `decode*`/`parse*`/
`from_bytes`/`from_body` in the wire layers (tcp/tls/core/quic) to
contain a `with decode_guard(...)` block, carry a module-local decorator
that wraps one (e.g. `@_armored`), or consist solely of delegation to a
guarded sibling."""

    def check(self, module: Module) -> Iterator[Finding]:
        if not _in_wire_scope(module):
            return
        # Module-local guard providers: functions whose body contains a
        # decode_guard with-block (used directly or as decorators).
        guarded_funcs: Set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.FunctionDef) and _contains_decode_guard(node):
                guarded_funcs.add(node.name)

        for node in ast.walk(module.tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            name = node.name
            if name.startswith("_") or not _is_parser_name(name):
                continue
            if _contains_decode_guard(node):
                continue
            if self._has_guarding_decorator(node, guarded_funcs):
                continue
            if self._delegates_to_guarded(node, guarded_funcs):
                continue
            yield Finding(
                rule=self.id,
                path=module.relpath,
                line=node.lineno,
                col=node.col_offset,
                message=f"public parser entry point {name}() is not wrapped "
                "in decode_guard (fail-closed wire contract)",
            )

    @staticmethod
    def _has_guarding_decorator(node: ast.FunctionDef, guarded: Set[str]) -> bool:
        for decorator in node.decorator_list:
            name = _dotted(decorator)
            if name and name.split(".")[-1] in guarded:
                return True
        return False

    @staticmethod
    def _delegates_to_guarded(node: ast.FunctionDef, guarded: Set[str]) -> bool:
        body = [
            stmt
            for stmt in node.body
            if not (
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
                and isinstance(stmt.value.value, str)
            )
        ]
        if not body:
            return False
        for stmt in body:
            if not (
                isinstance(stmt, ast.Return)
                and isinstance(stmt.value, ast.Call)
                and isinstance(stmt.value.func, ast.Name)
                and stmt.value.func.id in guarded
            ):
                return False
        return True


# ---------------------------------------------------------------------------
# SEC002 — assert as input validation
# ---------------------------------------------------------------------------

class Sec002AssertValidation(Rule):
    id = "SEC002"
    title = "no assert for untrusted-input validation in parser code"
    rationale = """\
`assert` statements vanish under `python -O`, so a parser that uses
`assert length <= limit` validates nothing in an optimized deployment —
the classic fail-open bug.  Inside the wire layers every validation of
attacker-controlled bytes must raise a typed `DecodeError` instead.

The rule flags `assert` inside any decode/parse-named function in the
wire layers (tcp/tls/core/quic).  Internal-invariant asserts elsewhere
(schedulers, tests, verifiers on trusted state) are untouched."""

    def check(self, module: Module) -> Iterator[Finding]:
        if not _in_wire_scope(module):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            if not _is_parser_name(node.name.lstrip("_")):
                continue
            for sub in ast.walk(node):
                if isinstance(sub, ast.Assert):
                    yield Finding(
                        rule=self.id,
                        path=module.relpath,
                        line=sub.lineno,
                        col=sub.col_offset,
                        message=f"assert in parser {node.name}() is stripped "
                        "under -O; raise a typed DecodeError instead",
                    )


# ---------------------------------------------------------------------------
# SEC003 — broad excepts
# ---------------------------------------------------------------------------

class Sec003BroadExcept(Rule):
    id = "SEC003"
    title = "no bare/broad except that can swallow ProtocolViolation"
    rationale = """\
`except Exception` (or a bare `except:`) around a wire-handling call
swallows `ProtocolViolation` — the fail-closed signal — together with
genuine programming errors, turning both an attack and a bug into
silence.  PR 4's armored parsers guarantee decode paths raise only the
typed `DecodeError` family, so handlers can (and must) catch exactly
that: `except DecodeError:` for parser fallbacks, `except ReproError:`
where any library-signalled failure should be contained.

Handlers that re-raise (a bare `raise` in the body) are accepted.
Intentional catch-alls — the analyzer isolating one rule's crash, a
best-effort alert send during teardown — carry
`# repro: noqa-SEC003` with a justification."""

    _BROAD = frozenset(("Exception", "BaseException"))

    def check(self, module: Module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            broad = node.type is None or self._names_broad(node.type)
            if not broad:
                continue
            if self._reraises(node):
                continue
            label = "bare except:" if node.type is None else (
                f"except {_dotted(node.type) or 'Exception'}"
            )
            yield Finding(
                rule=self.id,
                path=module.relpath,
                line=node.lineno,
                col=node.col_offset,
                message=f"{label} can swallow ProtocolViolation; catch "
                "DecodeError/ReproError or re-raise",
            )

    def _names_broad(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Tuple):
            return any(self._names_broad(elt) for elt in node.elts)
        name = _dotted(node)
        return bool(name) and name.split(".")[-1] in self._BROAD

    @staticmethod
    def _reraises(node: ast.ExceptHandler) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Raise) and sub.exc is None:
                return True
        return False


# ---------------------------------------------------------------------------
# OBS001 — telemetry keys from the registry
# ---------------------------------------------------------------------------

class Obs001TelemetryKeys(Rule):
    id = "OBS001"
    title = "telemetry key strings must come from repro.obs.keys"
    rationale = """\
Telemetry keys are an API: the benchmark harness, the CI job
summaries and the fault-matrix invariant checks all read counters by
name.  A literal key at the call site can silently fork the vocabulary
("decode.rejected" here, "decode_rejected" there) and the consumer
reads zero forever.  `repro.obs.keys` is the single registry; call
sites pass its constants (or helpers like `session_component()`), so
the rule simply rejects any string literal or f-string passed
directly to `Telemetry.counter`/`gauge`/`histogram` outside the obs
package itself."""

    _METHODS = frozenset(("counter", "gauge", "histogram"))
    _EXEMPT_SUFFIXES = ("obs/telemetry.py", "obs/keys.py")

    def check(self, module: Module) -> Iterator[Finding]:
        if module.relpath.endswith(self._EXEMPT_SUFFIXES):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute) and func.attr in self._METHODS
            ):
                continue
            for arg in node.args[:2]:
                if isinstance(arg, ast.JoinedStr) or (
                    isinstance(arg, ast.Constant) and isinstance(arg.value, str)
                ):
                    yield Finding(
                        rule=self.id,
                        path=module.relpath,
                        line=arg.lineno,
                        col=arg.col_offset,
                        message="telemetry key is a string literal; use a "
                        "constant/helper from repro.obs.keys",
                    )


# ---------------------------------------------------------------------------
# REL001 — overload shed/reject paths are counted
# ---------------------------------------------------------------------------

class Rel001OverloadTelemetry(Rule):
    id = "REL001"
    title = "every overload shed/reject path increments a count its object keeps"
    rationale = """\
The O1 benchmark's pass criterion is not just "goodput stays flat" but
"the excess was *actively refused*, with nonzero, deterministic
shed/reject counts" — silent drops and counted rejections are
indistinguishable from the outside, and only the counted kind can be
asserted on, trended in CI, and reconciled against the client-side
view.  A rejection branch someone adds without a counter quietly
breaks that reconciliation: the admission totals stop adding up to the
offered load and every overload invariant downstream goes soft.

The rule requires every shed/reject function in ``repro.overload``
(names starting ``reject*``/``shed*``; plain getters like
``shed_count`` are exempt) to increment a count that outlives the call
— a ``+=`` on a subscript or attribute in its body
(``self._counts["rejected_queue"] += 1``, ``self._shed_total += 1``),
or delegation to a module-local function that has one.  Those are the
counts ``AdmissionController.counts()`` returns, so a counted refusal
is by construction one the results report."""

    _NAME_RE = re.compile(r"^_?(reject|shed)")
    _EXEMPT_RE = re.compile(r"count$")

    def check(self, module: Module) -> Iterator[Finding]:
        if "repro/overload/" not in module.relpath:
            return
        counters: Set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.FunctionDef) and self._counts(node):
                counters.add(node.name)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            name = node.name
            if not self._NAME_RE.match(name) or self._EXEMPT_RE.search(name):
                continue
            if name in counters:
                continue
            if self._calls_any(node, counters):
                continue
            yield Finding(
                rule=self.id,
                path=module.relpath,
                line=node.lineno,
                col=node.col_offset,
                message=f"shed/reject path {name}() never increments a "
                "count; uncounted refusals cannot be reconciled against "
                "offered load",
            )

    @staticmethod
    def _counts(node: ast.FunctionDef) -> bool:
        for sub in ast.walk(node):
            if (
                isinstance(sub, ast.AugAssign)
                and isinstance(sub.op, ast.Add)
                and isinstance(sub.target, (ast.Subscript, ast.Attribute))
            ):
                return True
        return False

    @staticmethod
    def _calls_any(node: ast.FunctionDef, providers: Set[str]) -> bool:
        for sub in ast.walk(node):
            if not isinstance(sub, ast.Call):
                continue
            func = sub.func
            callee = (
                func.attr if isinstance(func, ast.Attribute)
                else func.id if isinstance(func, ast.Name)
                else None
            )
            if callee in providers:
                return True
        return False


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

def default_rules() -> List[Rule]:
    """One instance of every rule, in catalogue order."""
    return [
        Det001WallClock(),
        Det002UnorderedIteration(),
        Sec001DecodeGuard(),
        Sec002AssertValidation(),
        Sec003BroadExcept(),
        Obs001TelemetryKeys(),
        Rel001OverloadTelemetry(),
    ]


def rule_by_id(rule_id: str) -> Optional[Rule]:
    for rule in default_rules():
        if rule.id == rule_id.upper():
            return rule
    return None
