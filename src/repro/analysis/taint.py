"""Forward wire-taint propagation over the project call graph.

TCPLS's security argument rests on every byte that crosses the wire
being validated before it can influence memory, control flow or
protocol state.  ``decode_guard`` (PR 4) makes the *parse* fail closed
and SEC001 checks decoders sit under it — but both are per-module: a
length field decoded safely in ``tls/messages.py`` can still flow
unguarded through three helper calls into a buffer allocation in
``core/``.  This engine follows those flows.

**Sources.**  The return value (and the byte parameters) of every
``decode_guard``-wrapped parser, every module-local guard-decorated
parser (the ``@_armored`` form), parser-named entry points in the wire
scope, and everything produced by the fuzz corpus/mutator modules.
Reads off a tainted :class:`ByteReader` stay tainted — except the
one-byte reads (``get_u8``/``peek_u8``), which are *bounded* (≤255)
and therefore exempt from the integer sinks.

**Propagation.**  Forward, flow-insensitive within a function (with
source-order check tracking), interprocedural via a worklist fixpoint:
assignments, tuple unpacking, container packing, arithmetic, calls and
returns, attribute stores on ``self`` (protocol-object state), and
tainted arguments flowing into resolved callee parameters.

**Sanitizers.**  A value stops being dangerous at a *dominating bounds
check*: any earlier ``if``/``while``/``assert`` test mentioning the
name in the same function, a ``min(...)`` wrap, or a width-reducing
``x % cap`` / ``x & mask``.  ``max(...)`` is **not** a sanitizer — a
floor does not bound an attacker-supplied value.

**Sinks** (reported through the TAINT001/TAINT002 rules):

========  ==================================================================
alloc     ``bytes(n)`` / ``bytearray(n)`` with a tainted size
mult      sequence repetition ``literal * n`` with a tainted factor
range     ``range(n)`` bound by a tainted value
slice     tainted slice bound into an *untainted* buffer
timer     tainted delay into a scheduling call (resolved parameter named
          ``delay``/``timeout``/``seconds``/... or a ``schedule*`` callee)
store     tainted value stored into a resource-governing attribute
          (``*cwnd``/``*ssthresh``/``*window``/``*limit``/``*budget``/
          ``*credit``/``*offset``/``*timeout``)
exec      tainted data into ``exec``/``eval``/``compile``
pickle    tainted bytes into ``pickle``/``marshal`` loads
seed      tainted value seeding a ``Random``
telemetry tainted value formatted into a telemetry key
========  ==================================================================
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.callgraph import (
    CallGraph,
    CallSite,
    FunctionInfo,
    SymbolTable,
    module_dotted_name,
)
from repro.analysis.engine import Module

# -- taint kinds ------------------------------------------------------------

INT = "int"    # an unbounded wire integer (u16/u24/u32/u64, unpacked field)
DATA = "data"  # wire bytes / decoded containers
OBJ = "obj"    # a decoded object of unknown shape (parser return values)

#: Sinks that fire for unbounded integers (TAINT001).
INT_SINKS = frozenset(("alloc", "mult", "range", "slice", "timer", "store"))
#: Sinks that fire for wire data reaching interpreters/state (TAINT002).
DATA_SINKS = frozenset(("exec", "pickle", "seed", "telemetry"))

_INT_LIKE = frozenset((INT, OBJ))

#: ByteReader-style methods whose result is bounded by construction.
_BOUNDED_METHODS = frozenset(
    ("get_u8", "peek_u8", "remaining", "is_empty", "offset", "tell")
)

#: Builtins that keep their argument's taint (width-preserving).
_PASSTHROUGH_BUILTINS = frozenset(
    ("int", "float", "abs", "round", "max", "sorted", "list", "tuple",
     "reversed", "sum", "bytes", "bytearray", "memoryview")
)

#: Builtins whose result is bounded/clean regardless of arguments.
_CLEAN_BUILTINS = frozenset(("len", "bool", "isinstance", "id", "ord", "hash"))

_TIMER_PARAM_RE = re.compile(
    r"^(delay|timeout|seconds|interval|duration|deadline|when|at)$"
)
_TIMER_CALLEE_RE = re.compile(
    r"^(schedule|schedule_at|call_later|call_at|set_user_timeout)$"
)
_RESOURCE_ATTR_RE = re.compile(
    r"(^|_)(cwnd|ssthresh|window|limit|budget|credit|quota|offset|timeout)$"
)
_PARSER_NAME_RE = re.compile(r"^(decode|parse)($|_)")
_INTISH_NAME_RE = re.compile(
    r"(^|_)(len|length|size|count|num|total|limit|offset|n)$"
)


def _int_flavored(node: ast.AST) -> bool:
    """Does this expression read as an integer quantity?"""
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.Add, ast.Sub, ast.Mult, ast.FloorDiv, ast.LShift)
    ):
        return True
    name = (
        node.id if isinstance(node, ast.Name)
        else node.attr if isinstance(node, ast.Attribute) else None
    )
    return name is not None and bool(_INTISH_NAME_RE.search(name))
_PARSER_EXACT = frozenset(("from_bytes", "from_body"))
_WIRE_SCOPE_RE = re.compile(r"(^|/)(tcp|tls|core|quic)(/|$)")

#: Module dotted-name patterns whose functions produce attacker-shaped
#: data by construction (fuzz corpus seeds + mutators).
_SOURCE_MODULE_RES = (re.compile(r"\.fuzz\.(corpus|mutate)$"),)


@dataclass(frozen=True)
class Taint:
    """One tainted value: its width kind and human-readable origin."""

    kind: str
    origin: str

    def widened(self, kind: str) -> "Taint":
        return Taint(kind=kind, origin=self.origin)


@dataclass(frozen=True)
class Source:
    """A taint source: where it is and whether its parameters count.

    Decode-guard parsers receive raw wire bytes, so their parameters
    are tainted.  Fuzz corpus/mutator functions *produce* attacker
    bytes (their returns) but their own parameters (``rng`` handles,
    seed material) are trusted.
    """

    origin: str
    taint_params: bool = True


@dataclass
class SinkHit:
    """A tainted value reaching a sink without a dominating check."""

    sink: str
    module: Module
    line: int
    col: int
    detail: str
    origin: str


@dataclass
class FnResult:
    """Per-function facts from one intraprocedural pass."""

    returns: Optional[Taint] = None
    #: (callee qualname, param name, taint) for tainted arguments.
    param_flows: List[Tuple[str, str, Taint]] = field(default_factory=list)
    #: (class qualname, attr, taint) for tainted self-attribute stores.
    attr_stores: List[Tuple[str, str, Taint]] = field(default_factory=list)
    sinks: List[SinkHit] = field(default_factory=list)


class TaintEnv:
    """The interprocedural fixpoint state."""

    def __init__(self) -> None:
        self.param_taint: Dict[str, Dict[str, Taint]] = {}
        self.attr_taint: Dict[Tuple[str, str], Taint] = {}
        self.return_taint: Dict[str, Taint] = {}

    def merge_result(self, qualname: str, result: FnResult) -> Set[str]:
        """Fold one function's facts in; returns affected qualnames."""
        affected: Set[str] = set()
        if result.returns is not None and qualname not in self.return_taint:
            self.return_taint[qualname] = result.returns
            affected.add(qualname)
        for callee, param, taint in result.param_flows:
            per_fn = self.param_taint.setdefault(callee, {})
            if param not in per_fn:
                per_fn[param] = taint
                affected.add(callee)
        for class_qual, attr, taint in result.attr_stores:
            key = (class_qual, attr)
            if key not in self.attr_taint:
                self.attr_taint[key] = taint
                affected.add(class_qual)
        return affected


@dataclass
class TaintResult:
    """The completed whole-program analysis."""

    table: SymbolTable
    graph: CallGraph
    env: TaintEnv
    sources: Dict[str, Source]
    sinks: List[SinkHit]
    iterations: int


def _contains_decode_guard(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.With):
            for item in sub.items:
                expr = item.context_expr
                if isinstance(expr, ast.Call):
                    func = expr.func
                    name = (
                        func.attr if isinstance(func, ast.Attribute)
                        else func.id if isinstance(func, ast.Name) else None
                    )
                    if name == "decode_guard":
                        return True
    return False


def find_sources(table: SymbolTable) -> Dict[str, Source]:
    """qualname -> :class:`Source` for every taint source in the program."""
    sources: Dict[str, Source] = {}
    guard_providers_by_module: Dict[str, Set[str]] = {}
    for qualname, info in table.functions.items():
        if _contains_decode_guard(info.node):
            guard_providers_by_module.setdefault(
                module_dotted_name(info.module.relpath), set()
            ).add(info.name)
    for qualname, info in table.functions.items():
        mod_name = module_dotted_name(info.module.relpath)
        where = f"{info.module.relpath}:{info.node.lineno}"  # type: ignore[attr-defined]
        origin = f"{info.name}() [{where}]"
        if _contains_decode_guard(info.node):
            sources[qualname] = Source(origin)
            continue
        decorators = getattr(info.node, "decorator_list", [])
        providers = guard_providers_by_module.get(mod_name, set())
        for decorator in decorators:
            name = (
                decorator.id if isinstance(decorator, ast.Name)
                else decorator.attr if isinstance(decorator, ast.Attribute)
                else None
            )
            if name in providers:
                sources[qualname] = Source(origin)
                break
        if qualname in sources:
            continue
        parent = (
            info.module.relpath.rsplit("/", 1)[0]
            if "/" in info.module.relpath else ""
        )
        if _WIRE_SCOPE_RE.search(parent + "/") and (
            _PARSER_NAME_RE.match(info.name.lstrip("_"))
            or info.name in _PARSER_EXACT
        ):
            sources[qualname] = Source(origin)
            continue
        if any(r.search(mod_name) for r in _SOURCE_MODULE_RES):
            sources[qualname] = Source(origin, taint_params=False)
    return sources


class FunctionTaint:
    """One intraprocedural pass over a single function."""

    def __init__(
        self,
        info: FunctionInfo,
        sites: Sequence[CallSite],
        table: SymbolTable,
        env: TaintEnv,
        sources: Dict[str, Source],
        collect_sinks: bool,
    ) -> None:
        self.info = info
        self.table = table
        self.env = env
        self.sources = sources
        self.collect_sinks = collect_sinks
        self.result = FnResult()
        self.locals: Dict[str, Taint] = {}
        #: name -> lines where the name appears inside a test expression.
        self.check_lines: Dict[str, List[int]] = {}
        self._site_by_call: Dict[int, CallSite] = {
            id(site.node): site for site in sites
        }
        self._is_source = info.qualname in sources
        self._seed_params()
        self._collect_checks()

    # -- environment seeding ------------------------------------------------

    def _seed_params(self) -> None:
        per_fn = self.env.param_taint.get(self.info.qualname, {})
        for param, taint in per_fn.items():
            self.locals[param] = taint
        if self._is_source and self.sources[self.info.qualname].taint_params:
            origin = self.sources[self.info.qualname].origin
            for param in self.info.positional_params():
                self.locals.setdefault(param, Taint(DATA, origin))

    def _collect_checks(self) -> None:
        for node in ast.walk(self.info.node):
            test = None
            if isinstance(node, (ast.If, ast.While, ast.IfExp)):
                test = node.test
            elif isinstance(node, ast.Assert):
                test = node.test
            if test is None:
                continue
            for sub in ast.walk(test):
                name = self._trackable_name(sub)
                if name is not None:
                    self.check_lines.setdefault(name, []).append(sub.lineno)

    @staticmethod
    def _trackable_name(node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Name):
            return node.id
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return f"self.{node.attr}"
        return None

    def _checked_before(self, name: Optional[str], line: int) -> bool:
        if name is None:
            return False
        return any(check <= line for check in self.check_lines.get(name, []))

    # -- main entry ---------------------------------------------------------

    def run(self) -> FnResult:
        body = getattr(self.info.node, "body", [])
        # Two local passes: the second catches taint that flows backward
        # through a loop body (defined late, used early).
        for _ in range(2):
            for stmt in body:
                self._visit(stmt)
        for node in ast.walk(self.info.node):
            if isinstance(node, ast.Call):
                self._flow_args(node)
        if self.collect_sinks:
            self._check_sinks()
        return self.result

    # -- statement walk (taint state) ---------------------------------------

    def _visit(self, node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return  # nested scopes are separate functions / opaque
        if isinstance(node, ast.Assign):
            taint = self.taint_of(node.value)
            for target in node.targets:
                self._assign(target, node.value, taint)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            self._assign(node.target, node.value, self.taint_of(node.value))
        elif isinstance(node, ast.AugAssign):
            taint = self.taint_of(node.value)
            name = self._trackable_name(node.target)
            if taint is not None and isinstance(node.target, ast.Name):
                self.locals[node.target.id] = taint
            elif taint is not None and name is not None:
                self._store_attr(node.target, taint)
        elif isinstance(node, ast.NamedExpr):
            taint = self.taint_of(node.value)
            if isinstance(node.target, ast.Name):
                if taint is not None:
                    self.locals[node.target.id] = taint
                else:
                    self.locals.pop(node.target.id, None)
        elif isinstance(node, ast.For):
            taint = self.taint_of(node.iter)
            if taint is not None:
                self._bind_target(node.target, taint)
        elif isinstance(node, ast.Return) and node.value is not None:
            taint = self.taint_of(node.value)
            if taint is not None and self.result.returns is None:
                self.result.returns = taint
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                               ast.DictComp)):
            for gen in node.generators:
                taint = self.taint_of(gen.iter)
                if taint is not None:
                    self._bind_target(gen.target, taint)
        for child in ast.iter_child_nodes(node):
            self._visit(child)

    def _assign(
        self, target: ast.AST, value: ast.AST, taint: Optional[Taint]
    ) -> None:
        if isinstance(target, ast.Name):
            if taint is not None:
                self.locals[target.id] = taint
            else:
                self.locals.pop(target.id, None)
        elif isinstance(target, (ast.Tuple, ast.List)):
            if isinstance(value, (ast.Tuple, ast.List)) and len(
                value.elts
            ) == len(target.elts):
                for t_elt, v_elt in zip(target.elts, value.elts):
                    self._assign(t_elt, v_elt, self.taint_of(v_elt))
            else:
                for t_elt in target.elts:
                    self._bind_target(t_elt, taint) if taint is not None else (
                        self._clear_target(t_elt)
                    )
        elif isinstance(target, ast.Attribute) and taint is not None:
            self._store_attr(target, taint)

    def _bind_target(self, target: ast.AST, taint: Taint) -> None:
        if isinstance(target, ast.Name):
            self.locals[target.id] = taint
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind_target(elt, taint)
        elif isinstance(target, ast.Starred):
            self._bind_target(target.value, taint)
        elif isinstance(target, ast.Attribute):
            self._store_attr(target, taint)

    def _clear_target(self, target: ast.AST) -> None:
        if isinstance(target, ast.Name):
            self.locals.pop(target.id, None)

    def _store_attr(self, target: ast.Attribute, taint: Taint) -> None:
        if (
            isinstance(target.value, ast.Name)
            and target.value.id == "self"
            and self.info.class_name is not None
        ):
            self.result.attr_stores.append(
                (self.info.class_name, target.attr, taint)
            )

    # -- expression taint ---------------------------------------------------

    def taint_of(self, node: ast.AST) -> Optional[Taint]:
        if isinstance(node, ast.Constant):
            return None
        if isinstance(node, ast.Name):
            return self.locals.get(node.id)
        if isinstance(node, ast.Attribute):
            if (
                isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and self.info.class_name is not None
            ):
                return self.env.attr_taint.get(
                    (self.info.class_name, node.attr)
                )
            base = self.taint_of(node.value)
            if base is not None and base.kind == OBJ:
                # Fields of a decoded/attacker-built object are
                # attacker-controlled too (e.g. ``option.timeout``,
                # ``vm.memory``).  Reads off plain DATA stay clean.
                return base.widened(OBJ)
            return None
        if isinstance(node, ast.Call):
            return self._call_taint(node)
        if isinstance(node, ast.BinOp):
            left, right = self.taint_of(node.left), self.taint_of(node.right)
            if isinstance(node.op, (ast.Mod, ast.BitAnd)) and right is None:
                return None  # width-reducing: x % cap, x & mask
            return left or right
        if isinstance(node, ast.UnaryOp):
            return self.taint_of(node.operand)
        if isinstance(node, (ast.BoolOp, ast.Compare)):
            return None
        if isinstance(node, ast.IfExp):
            return self.taint_of(node.body) or self.taint_of(node.orelse)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            for elt in node.elts:
                taint = self.taint_of(elt)
                if taint is not None:
                    return taint.widened(DATA)
            return None
        if isinstance(node, ast.Dict):
            for value in list(node.keys) + list(node.values):
                if value is not None:
                    taint = self.taint_of(value)
                    if taint is not None:
                        return taint.widened(DATA)
            return None
        if isinstance(node, ast.Subscript):
            base = self.taint_of(node.value)
            if base is None:
                return None
            if isinstance(node.slice, ast.Slice):
                return base  # a slice of bytes is bytes, of an obj an obj
            if base.kind == DATA:
                return None  # one byte out of a bytes value is bounded
            return base.widened(OBJ)
        if isinstance(node, ast.Starred):
            return self.taint_of(node.value)
        if isinstance(node, ast.JoinedStr):
            for value in node.values:
                if isinstance(value, ast.FormattedValue):
                    taint = self.taint_of(value.value)
                    if taint is not None:
                        return taint.widened(DATA)
            return None
        if isinstance(node, ast.Await):
            return self.taint_of(node.value)
        return None

    def _call_taint(self, node: ast.Call) -> Optional[Taint]:
        func = node.func
        # Builtins first: sanitizers, passthroughs, clean folds.
        if isinstance(func, ast.Name):
            if func.id == "min":
                return None  # a min() wrap is the canonical guard-cap
            if func.id in _CLEAN_BUILTINS:
                return None
            if func.id in _PASSTHROUGH_BUILTINS:
                for arg in node.args:
                    taint = self.taint_of(arg)
                    if taint is not None:
                        return taint
                return None
        # struct.unpack / int.from_bytes on tainted data yield wide ints.
        if isinstance(func, ast.Attribute) and func.attr in (
            "unpack", "unpack_from", "from_bytes"
        ):
            for arg in node.args:
                taint = self.taint_of(arg)
                if taint is not None:
                    return taint.widened(INT)
        site = self._site_by_call.get(id(node))
        if site is not None:
            for callee in site.callees:
                if callee in self.sources:
                    return Taint(OBJ, self.sources[callee].origin)
                returned = self.env.return_taint.get(callee)
                if returned is not None:
                    return returned
                if callee.endswith(".__init__"):
                    # Constructing an object from tainted material
                    # taints the object (``Vm(program)``).
                    for arg in list(node.args) + [
                        kw.value for kw in node.keywords
                    ]:
                        taint = self.taint_of(arg)
                        if taint is not None:
                            return taint.widened(OBJ)
        # Method calls on tainted receivers: reads off a tainted reader
        # or decoded object stay tainted (except the bounded one-byte
        # reads and size probes).
        if isinstance(func, ast.Attribute):
            receiver = self.taint_of(func.value)
            if receiver is not None:
                if func.attr in _BOUNDED_METHODS:
                    return None
                if func.attr.startswith("get_u"):
                    return receiver.widened(INT)
                return receiver.widened(OBJ)
        return None

    # -- interprocedural facts + sinks --------------------------------------

    def _check_sinks(self) -> None:
        for node in ast.walk(self.info.node):
            if isinstance(node, ast.Call):
                self._sink_call(node)
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
                self._sink_mult(node)
            elif isinstance(node, ast.Subscript) and isinstance(
                node.slice, ast.Slice
            ):
                self._sink_slice(node)
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                self._sink_store(node)

    def _flow_args(self, node: ast.Call) -> None:
        site = self._site_by_call.get(id(node))
        if site is None:
            return
        for callee_qual in site.callees:
            callee = self.table.functions.get(callee_qual)
            if callee is None:
                continue
            params = callee.positional_params()
            for index, arg in enumerate(node.args):
                if isinstance(arg, ast.Starred) or index >= len(params):
                    break
                taint = self.taint_of(arg)
                if taint is None:
                    continue
                name = self._trackable_name(arg)
                if self._checked_before(name, arg.lineno):
                    continue
                flowed = Taint(
                    taint.kind,
                    f"{taint.origin} via "
                    f"{self.info.module.relpath}:{arg.lineno}",
                )
                self.result.param_flows.append(
                    (callee_qual, params[index], flowed)
                )
            for keyword in node.keywords:
                if keyword.arg is None or keyword.arg not in params:
                    continue
                taint = self.taint_of(keyword.value)
                if taint is None:
                    continue
                name = self._trackable_name(keyword.value)
                if self._checked_before(name, keyword.value.lineno):
                    continue
                flowed = Taint(
                    taint.kind,
                    f"{taint.origin} via "
                    f"{self.info.module.relpath}:{keyword.value.lineno}",
                )
                self.result.param_flows.append(
                    (callee_qual, keyword.arg, flowed)
                )

    def _hit(
        self, sink: str, node: ast.AST, detail: str, taint: Taint
    ) -> None:
        self.result.sinks.append(
            SinkHit(
                sink=sink,
                module=self.info.module,
                line=node.lineno,
                col=node.col_offset,
                detail=detail,
                origin=taint.origin,
            )
        )

    def _unchecked_taint(
        self, node: ast.AST, kinds: frozenset
    ) -> Optional[Taint]:
        taint = self.taint_of(node)
        if taint is None or taint.kind not in kinds:
            return None
        if self._checked_before(self._trackable_name(node), node.lineno):
            return None
        return taint

    def _sink_call(self, node: ast.Call) -> None:
        func = node.func
        name = (
            func.id if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute)
            else None
        )
        if name is None:
            return
        fn_name = f"{self.info.name}()"
        # alloc: bytes(n)/bytearray(n) with a tainted size argument.
        # bytes(obj) also *copies* data, so an OBJ-kind argument only
        # counts when it reads as an integer (arithmetic or a
        # size-flavored name) — a copy is not an attacker-sized zero
        # allocation.
        if name in ("bytes", "bytearray") and isinstance(func, ast.Name):
            if len(node.args) == 1:
                arg = node.args[0]
                taint = self._unchecked_taint(arg, _INT_LIKE)
                if taint is not None and (
                    taint.kind == INT or _int_flavored(arg)
                ):
                    self._hit(
                        "alloc", node,
                        f"wire-derived size into {name}() in {fn_name}",
                        taint,
                    )
        # range: tainted bound.
        if name == "range" and isinstance(func, ast.Name):
            for arg in node.args:
                taint = self._unchecked_taint(arg, frozenset((INT,)))
                if taint is not None:
                    self._hit(
                        "range", node,
                        f"wire-derived range() bound in {fn_name}", taint,
                    )
                    break
        # exec family.
        if name in ("exec", "eval", "compile") and node.args:
            taint = self._unchecked_taint(
                node.args[0], frozenset((DATA, OBJ, INT))
            )
            if taint is not None:
                self._hit(
                    "exec", node,
                    f"wire-derived input into {name}() in {fn_name}", taint,
                )
        # pickle/marshal loads.
        if name in ("loads", "load") and isinstance(func, ast.Attribute):
            base = func.value
            base_name = base.id if isinstance(base, ast.Name) else None
            if base_name in ("pickle", "marshal") and node.args:
                taint = self._unchecked_taint(
                    node.args[0], frozenset((DATA, OBJ))
                )
                if taint is not None:
                    self._hit(
                        "pickle", node,
                        f"wire-derived bytes into {base_name}.{name}() "
                        f"in {fn_name}",
                        taint,
                    )
        # RNG seeding.
        if name in ("seed", "Random") and node.args:
            taint = self._unchecked_taint(
                node.args[0], frozenset((DATA, OBJ, INT))
            )
            if taint is not None:
                self._hit(
                    "seed", node,
                    f"wire-derived value seeding {name}() in {fn_name}",
                    taint,
                )
        # Telemetry keys.
        if name in ("counter", "gauge", "histogram") and isinstance(
            func, ast.Attribute
        ) and node.args:
            taint = self.taint_of(node.args[0])
            if taint is not None:
                self._hit(
                    "telemetry", node,
                    f"wire-derived value in a telemetry key in {fn_name}",
                    taint,
                )
        # Timer delays: by callee name, or by resolved parameter name.
        if _TIMER_CALLEE_RE.match(name):
            for arg in node.args:
                taint = self._unchecked_taint(arg, _INT_LIKE)
                if taint is not None:
                    self._hit(
                        "timer", node,
                        f"wire-derived delay into {name}() in {fn_name}",
                        taint,
                    )
                    break
        else:
            site = self._site_by_call.get(id(node))
            if site is not None:
                self._sink_timer_params(node, site, fn_name)

    def _sink_timer_params(
        self, node: ast.Call, site: CallSite, fn_name: str
    ) -> None:
        for callee_qual in site.callees:
            callee = self.table.functions.get(callee_qual)
            if callee is None:
                continue
            params = callee.positional_params()
            for index, arg in enumerate(node.args):
                if index >= len(params):
                    break
                if not _TIMER_PARAM_RE.match(params[index]):
                    continue
                taint = self._unchecked_taint(arg, _INT_LIKE)
                if taint is not None:
                    self._hit(
                        "timer", node,
                        f"wire-derived value into parameter "
                        f"{params[index]!r} of {callee.name}() in {fn_name}",
                        taint,
                    )
                    return
            for keyword in node.keywords:
                if keyword.arg is None or not _TIMER_PARAM_RE.match(
                    keyword.arg
                ):
                    continue
                taint = self._unchecked_taint(keyword.value, _INT_LIKE)
                if taint is not None:
                    self._hit(
                        "timer", node,
                        f"wire-derived value into parameter "
                        f"{keyword.arg!r} of {callee.name}() in {fn_name}",
                        taint,
                    )
                    return

    def _sink_mult(self, node: ast.BinOp) -> None:
        pairs = ((node.left, node.right), (node.right, node.left))
        for seq, factor in pairs:
            if not self._is_sequence_literal(seq):
                continue
            taint = self._unchecked_taint(factor, _INT_LIKE)
            if taint is not None:
                self._hit(
                    "mult", node,
                    f"wire-derived repetition factor in {self.info.name}()",
                    taint,
                )
                return

    @staticmethod
    def _is_sequence_literal(node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Constant)
            and isinstance(node.value, (bytes, str))
        ) or isinstance(node, (ast.List, ast.Tuple))

    def _sink_slice(self, node: ast.Subscript) -> None:
        if self.taint_of(node.value) is not None:
            return  # slicing tainted data by tainted bounds is the
            # normal (clamped, memory-safe) parser pattern
        assert isinstance(node.slice, ast.Slice)
        for bound in (node.slice.lower, node.slice.upper, node.slice.step):
            if bound is None:
                continue
            taint = self._unchecked_taint(bound, frozenset((INT,)))
            if taint is not None:
                self._hit(
                    "slice", node,
                    f"wire-derived slice bound into an unrelated buffer "
                    f"in {self.info.name}()",
                    taint,
                )
                return

    def _sink_store(self, node: ast.AST) -> None:
        targets: Iterable[ast.AST]
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AugAssign):
            targets, value = (node.target,), node.value
        else:
            return
        for target in targets:
            if not isinstance(target, ast.Attribute):
                continue
            if not _RESOURCE_ATTR_RE.search(target.attr):
                continue
            taint = self._unchecked_taint(value, _INT_LIKE)
            if taint is None:
                continue
            self._hit(
                "store", node,
                f"wire-derived value stored into resource attribute "
                f"{target.attr!r} in {self.info.name}() without a cap",
                taint,
            )
            return


# ---------------------------------------------------------------------------
# Whole-program driver
# ---------------------------------------------------------------------------

_MAX_ITERATIONS = 24


def analyze(
    table: SymbolTable, graph: CallGraph
) -> TaintResult:
    """Run the interprocedural fixpoint and collect sink hits."""
    env = TaintEnv()
    sources = find_sources(table)

    def run_pass(qualname: str, collect: bool) -> FnResult:
        info = table.functions[qualname]
        return FunctionTaint(
            info, graph.sites.get(qualname, ()), table, env, sources, collect
        ).run()

    #: class qualname -> its methods (for attr-taint dirtying).
    methods_of: Dict[str, List[str]] = {}
    for qualname, info in table.functions.items():
        if info.class_name is not None:
            methods_of.setdefault(info.class_name, []).append(qualname)

    dirty: Set[str] = set(table.functions)
    iterations = 0
    while dirty and iterations < _MAX_ITERATIONS:
        iterations += 1
        current, dirty = dirty, set()
        affected_total: Set[str] = set()
        for qualname in sorted(current):
            result = run_pass(qualname, collect=False)
            affected_total |= env.merge_result(qualname, result)
        for affected in sorted(affected_total):
            if affected in table.functions:
                # New return taint: re-run every caller.
                dirty |= graph.callers_of.get(affected, set())
                # New param taint: re-run the function itself.
                dirty.add(affected)
            elif affected in methods_of:
                dirty.update(methods_of[affected])
    sinks: List[SinkHit] = []
    for qualname in sorted(table.functions):
        sinks.extend(run_pass(qualname, collect=True).sinks)
    sinks.sort(key=lambda hit: (hit.module.relpath, hit.line, hit.col))
    return TaintResult(
        table=table,
        graph=graph,
        env=env,
        sources=sources,
        sinks=sinks,
        iterations=iterations,
    )


# -- memoized program-level entry (shared by the TAINT/API rules) -----------

_cache_key: Optional[Tuple[Tuple[str, int, int], ...]] = None
_cache_value: Optional[Tuple[SymbolTable, CallGraph, TaintResult]] = None


def analyze_program(
    modules: Sequence[Module],
) -> Tuple[SymbolTable, CallGraph, TaintResult]:
    """Build (symbol table, call graph, taint result), memoized per run.

    Several rules share the whole-program pass; the memo keys on every
    module's path/size/content hash so fixture runs and the real tree
    never cross-contaminate.
    """
    global _cache_key, _cache_value
    key = tuple(
        (m.relpath, len(m.source), hash(m.source)) for m in modules
    )
    if key == _cache_key and _cache_value is not None:
        return _cache_value
    table = SymbolTable.build(modules)
    graph = CallGraph.build(table)
    result = analyze(table, graph)
    _cache_key, _cache_value = key, (table, graph, result)
    return _cache_value
