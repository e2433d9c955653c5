"""Cross-module symbol table and call graph for whole-program rules.

The per-module rules in :mod:`repro.analysis.rules` are blind to flows
that cross a function boundary: a length field decoded safely in
``tls/messages.py`` can still travel through three helpers into a
buffer allocation in ``core/``.  This module builds the shared
infrastructure the interprocedural rules (TAINT001/TAINT002) stand on:

- a **symbol table** of every module, class, function and method under
  the analysis roots, keyed by dotted qualified name
  (``src.repro.core.session.TcplsSession.recv_data``);
- **import resolution** mapping the names a module binds to the
  project symbols they refer to (suffix-tolerant, so ``repro.core``
  resolves whether the analysis root is the repo or a fixture tree);
- a **call graph**: for every ``ast.Call`` in every function body, the
  set of project functions it may invoke.  Resolution is best-effort
  and deliberately conservative: direct names, module attributes,
  ``self`` methods and constructors resolve exactly; a bare
  ``obj.method(...)`` on an unknown receiver falls back to the unique
  project method of that name whose signature accepts the call (the
  *name+arity* heuristic), and stays unresolved when several match.

Everything here is pure AST bookkeeping — nothing is imported or
executed — so the graph is safe to build over hostile fixture corpora.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.engine import Module

#: An unknown-receiver method call resolves only when at most this many
#: project methods of that name are signature-compatible.
_MAX_FALLBACK_CANDIDATES = 4

_FunctionNode = (ast.FunctionDef, ast.AsyncFunctionDef)


def module_dotted_name(relpath: str) -> str:
    """``src/repro/core/session.py`` -> ``src.repro.core.session``."""
    name = relpath[:-3] if relpath.endswith(".py") else relpath
    if name.endswith("/__init__"):
        name = name[: -len("/__init__")]
    return name.replace("/", ".")


@dataclass
class FunctionInfo:
    """One project function or method."""

    qualname: str
    module: Module
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    class_name: Optional[str] = None  # enclosing class qualname, or None

    @property
    def name(self) -> str:
        return self.node.name  # type: ignore[attr-defined]

    @property
    def is_method(self) -> bool:
        return self.class_name is not None

    def params(self) -> List[str]:
        args = self.node.args  # type: ignore[attr-defined]
        return [a.arg for a in args.posonlyargs + args.args]

    def positional_params(self) -> List[str]:
        """Parameter names as a caller sees them (``self`` dropped)."""
        params = self.params()
        if self.is_method and params and params[0] in ("self", "cls"):
            return params[1:]
        return params

    def accepts_call(self, call: ast.Call) -> bool:
        """Loose signature compatibility for the name+arity fallback."""
        args = self.node.args  # type: ignore[attr-defined]
        n_given = len([a for a in call.args if not isinstance(a, ast.Starred)])
        if any(isinstance(a, ast.Starred) for a in call.args):
            return True
        params = self.positional_params()
        if n_given > len(params) and args.vararg is None:
            return False
        keyword_names = {kw.arg for kw in call.keywords if kw.arg is not None}
        if any(kw.arg is None for kw in call.keywords):
            return True  # **kwargs at the call site: assume compatible
        kwonly = {a.arg for a in args.kwonlyargs}
        if args.kwarg is None and not keyword_names <= (set(params) | kwonly):
            return False
        n_defaults = len(args.defaults)
        covered = n_given + len(keyword_names & set(params))
        return covered >= len(params) - n_defaults or args.vararg is not None


@dataclass
class ClassInfo:
    """One project class: its methods and (project-resolvable) bases."""

    qualname: str
    module: Module
    node: ast.ClassDef
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    base_names: List[str] = field(default_factory=list)


@dataclass
class CallSite:
    """One resolved call: caller function, AST node, candidate callees."""

    caller: str
    node: ast.Call
    callees: Tuple[str, ...]
    #: True when resolution used the name+arity fallback (imprecise).
    via_fallback: bool = False


class SymbolTable:
    """Every module/class/function under the analysis roots, indexed."""

    def __init__(self) -> None:
        self.modules: Dict[str, Module] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: bare method name -> every project method with that name.
        self.methods_by_name: Dict[str, List[FunctionInfo]] = {}
        #: (module dotted name, top-level function name) -> info.
        self._toplevel: Dict[Tuple[str, str], FunctionInfo] = {}
        #: (module dotted name, class name) -> info.
        self._module_classes: Dict[Tuple[str, str], ClassInfo] = {}
        #: dotted suffix -> full module names ending in that suffix.
        self._by_suffix: Dict[str, List[str]] = {}
        #: per-module import maps (alias -> module, name -> (module, orig)).
        self._imports: Dict[str, Tuple[Dict[str, str], Dict[str, Tuple[str, str]]]] = {}

    # -- construction -------------------------------------------------------

    @classmethod
    def build(cls, modules: Sequence[Module]) -> "SymbolTable":
        table = cls()
        for module in modules:
            table._index_module(module)
        return table

    def _index_module(self, module: Module) -> None:
        mod_name = module_dotted_name(module.relpath)
        self.modules[mod_name] = module
        parts = mod_name.split(".")
        for start in range(len(parts)):
            suffix = ".".join(parts[start:])
            self._by_suffix.setdefault(suffix, []).append(mod_name)
        self._imports[mod_name] = _collect_imports(module.tree)
        for node in module.tree.body:  # type: ignore[attr-defined]
            if isinstance(node, _FunctionNode):
                info = FunctionInfo(
                    qualname=f"{mod_name}.{node.name}", module=module, node=node
                )
                self.functions[info.qualname] = info
                self._toplevel[(mod_name, node.name)] = info
            elif isinstance(node, ast.ClassDef):
                class_qual = f"{mod_name}.{node.name}"
                cinfo = ClassInfo(
                    qualname=class_qual,
                    module=module,
                    node=node,
                    base_names=[
                        base_name
                        for base in node.bases
                        if (base_name := _dotted_name(base)) is not None
                    ],
                )
                for sub in node.body:
                    if isinstance(sub, _FunctionNode):
                        info = FunctionInfo(
                            qualname=f"{class_qual}.{sub.name}",
                            module=module,
                            node=sub,
                            class_name=class_qual,
                        )
                        cinfo.methods[sub.name] = info
                        self.functions[info.qualname] = info
                        self.methods_by_name.setdefault(sub.name, []).append(info)
                self.classes[class_qual] = cinfo
                self._module_classes[(mod_name, node.name)] = cinfo

    # -- lookups ------------------------------------------------------------

    def resolve_module(self, dotted: str) -> Optional[str]:
        """Map an imported module path to a known module (suffix match)."""
        if dotted in self.modules:
            return dotted
        candidates = self._by_suffix.get(dotted, [])
        if len(candidates) == 1:
            return candidates[0]
        return None

    def toplevel(self, mod_name: str, func: str) -> Optional[FunctionInfo]:
        return self._toplevel.get((mod_name, func))

    def module_class(self, mod_name: str, name: str) -> Optional[ClassInfo]:
        return self._module_classes.get((mod_name, name))

    def lookup_method(
        self, class_qual: str, name: str, _seen: Optional[Set[str]] = None
    ) -> Optional[FunctionInfo]:
        """Find ``name`` on the class or a project-resolvable base."""
        seen = _seen if _seen is not None else set()
        if class_qual in seen:
            return None
        seen.add(class_qual)
        cinfo = self.classes.get(class_qual)
        if cinfo is None:
            return None
        if name in cinfo.methods:
            return cinfo.methods[name]
        mod_name = module_dotted_name(cinfo.module.relpath)
        for base_name in cinfo.base_names:
            base = self._resolve_class_name(mod_name, base_name)
            if base is not None:
                found = self.lookup_method(base.qualname, name, seen)
                if found is not None:
                    return found
        return None

    def _resolve_class_name(
        self, mod_name: str, name: str
    ) -> Optional[ClassInfo]:
        """Resolve a (possibly dotted/imported) class name used in ``mod_name``."""
        head, _, rest = name.partition(".")
        modules_map, names_map = self._imports.get(mod_name, ({}, {}))
        if not rest:
            local = self.module_class(mod_name, head)
            if local is not None:
                return local
            if head in names_map:
                src_mod, orig = names_map[head]
                resolved = self.resolve_module(src_mod)
                if resolved is not None:
                    return self.module_class(resolved, orig)
            return None
        if head in modules_map:
            resolved = self.resolve_module(modules_map[head])
            if resolved is not None:
                return self.module_class(resolved, rest)
        return None


def _collect_imports(
    tree: ast.AST,
) -> Tuple[Dict[str, str], Dict[str, Tuple[str, str]]]:
    """(module alias -> module path, bound name -> (module, original)).

    Same shape as ``rules._import_aliases`` but local to avoid an import
    cycle; relative imports are skipped (the suffix matcher would only
    guess at them).
    """
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


def _dotted_name(node: ast.AST) -> Optional[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class CallResolver:
    """Resolves ``ast.Call`` nodes inside one function to project symbols."""

    def __init__(self, table: SymbolTable, info: FunctionInfo) -> None:
        self.table = table
        self.info = info
        self.mod_name = module_dotted_name(info.module.relpath)
        self.modules_map, self.names_map = table._imports.get(
            self.mod_name, ({}, {})
        )

    def resolve(self, call: ast.Call) -> Tuple[List[FunctionInfo], bool]:
        """(candidate callees, used_fallback)."""
        func = call.func
        if isinstance(func, ast.Name):
            resolved = self._resolve_bare_name(func.id, call)
            return (resolved, False)
        if isinstance(func, ast.Attribute):
            return self._resolve_attribute(func, call)
        return ([], False)

    def _resolve_bare_name(self, name: str, call: ast.Call) -> List[FunctionInfo]:
        local = self.table.toplevel(self.mod_name, name)
        if local is not None:
            return [local]
        local_class = self.table.module_class(self.mod_name, name)
        if local_class is not None:
            return self._constructor(local_class)
        if name in self.names_map:
            src_mod, orig = self.names_map[name]
            resolved_mod = self.table.resolve_module(src_mod)
            if resolved_mod is not None:
                fn = self.table.toplevel(resolved_mod, orig)
                if fn is not None:
                    return [fn]
                cinfo = self.table.module_class(resolved_mod, orig)
                if cinfo is not None:
                    return self._constructor(cinfo)
        return []

    def _constructor(self, cinfo: ClassInfo) -> List[FunctionInfo]:
        init = self.table.lookup_method(cinfo.qualname, "__init__")
        return [init] if init is not None else []

    def _resolve_attribute(
        self, func: ast.Attribute, call: ast.Call
    ) -> Tuple[List[FunctionInfo], bool]:
        attr = func.attr
        base = func.value
        # self.method(...) / cls.method(...)
        if (
            isinstance(base, ast.Name)
            and base.id in ("self", "cls")
            and self.info.class_name is not None
        ):
            found = self.table.lookup_method(self.info.class_name, attr)
            if found is not None:
                return ([found], False)
            return self._fallback(attr, call)
        # module_alias.func(...) or pkg.sub.func(...)
        dotted = _dotted_name(base)
        if dotted is not None:
            head = dotted.split(".", 1)[0]
            target_mod: Optional[str] = None
            if head in self.modules_map:
                rest = dotted.split(".", 1)[1] if "." in dotted else ""
                target = self.modules_map[head] + (f".{rest}" if rest else "")
                target_mod = self.table.resolve_module(target)
            if target_mod is None:
                target_mod = self.table.resolve_module(dotted)
            if target_mod is not None:
                fn = self.table.toplevel(target_mod, attr)
                if fn is not None:
                    return ([fn], False)
                cinfo = self.table.module_class(target_mod, attr)
                if cinfo is not None:
                    return (self._constructor(cinfo), False)
            # ClassName.method(...) via import or local class
            cinfo = self.table._resolve_class_name(self.mod_name, dotted)
            if cinfo is not None:
                found = self.table.lookup_method(cinfo.qualname, attr)
                if found is not None:
                    return ([found], False)
        return self._fallback(attr, call)

    def _fallback(
        self, method_name: str, call: ast.Call
    ) -> Tuple[List[FunctionInfo], bool]:
        candidates = [
            fn
            for fn in self.table.methods_by_name.get(method_name, [])
            if fn.accepts_call(call)
        ]
        if 0 < len(candidates) <= _MAX_FALLBACK_CANDIDATES:
            return (candidates, True)
        return ([], False)


class CallGraph:
    """Call sites per function plus forward/reverse adjacency."""

    def __init__(self, table: SymbolTable) -> None:
        self.table = table
        self.sites: Dict[str, List[CallSite]] = {}
        self.callers_of: Dict[str, Set[str]] = {}

    @classmethod
    def build(cls, table: SymbolTable) -> "CallGraph":
        graph = cls(table)
        for qualname, info in table.functions.items():
            resolver = CallResolver(table, info)
            sites: List[CallSite] = []
            for node in ast.walk(info.node):
                if not isinstance(node, ast.Call):
                    continue
                callees, via_fallback = resolver.resolve(node)
                if not callees:
                    continue
                site = CallSite(
                    caller=qualname,
                    node=node,
                    callees=tuple(fn.qualname for fn in callees),
                    via_fallback=via_fallback,
                )
                sites.append(site)
                for fn in callees:
                    graph.callers_of.setdefault(fn.qualname, set()).add(qualname)
            graph.sites[qualname] = sites
        return graph
