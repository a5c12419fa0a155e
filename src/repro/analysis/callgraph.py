"""Project-wide import and call graphs for the whole-program passes.

Per-module extraction (:func:`extract_module`) reduces one parsed source
file to a :class:`ModuleSummary` — function definitions, resolved-as-far-
as-locally-possible call targets, direct impurity/blocking sources,
process spawns, pragmas, and the module's import aliases.  Cross-module
*linking* (:class:`CallGraph`) then runs purely over the summaries.

Resolution is deliberately conservative: a call is linked only when its
target is statically nameable — a local function/class, an imported name
(following re-export chains through package ``__init__`` aliases), or a
``self.method()`` resolved through the enclosing class and its statically
known bases.  Calls through arbitrary objects (``obj.run()``) are dropped
rather than fanned out to every same-named method; simlint prefers silence
to a false-positive storm, and the runtime sanitizer backstops what the
static pass cannot see.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.pragmas import PragmaIndex

#: Builtins worth resolving (source/blocking catalogs reference them).
_INTERESTING_BUILTINS = frozenset({
    "set", "input", "iter", "sorted", "id", "eval", "exec", "print",
})


# --------------------------------------------------------------- summaries
@dataclass
class FunctionSummary:
    """One function or method, reduced to what the linker needs."""

    qualname: str                #: e.g. ``repro.sim.kernel.Simulator.run``
    name: str                    #: bare name, e.g. ``run``
    lineno: int
    is_generator: bool
    class_name: Optional[str]    #: enclosing class qualname, or None
    #: (target, lineno) — target is a dotted name or ``self.<method>``.
    calls: List[Tuple[str, int]] = field(default_factory=list)
    #: (kind, description, lineno) — direct impurity/blocking sources.
    sources: List[Tuple[str, str, int]] = field(default_factory=list)
    #: call targets handed to ``sim.process(...)`` / ``Process(sim, ...)``.
    spawns: List[Tuple[str, int]] = field(default_factory=list)


@dataclass
class ClassSummary:
    qualname: str
    bases: List[str] = field(default_factory=list)
    #: method name -> function qualname.
    methods: Dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleSummary:
    """Everything the whole-program passes need from one source file."""

    path: str
    modname: str
    functions: Dict[str, FunctionSummary] = field(default_factory=dict)
    classes: Dict[str, ClassSummary] = field(default_factory=dict)
    #: local name -> dotted target (imports and module-level defs).
    exports: Dict[str, str] = field(default_factory=dict)
    #: modules this one imports (dotted names) — the import graph.
    imports: List[str] = field(default_factory=list)
    pragmas: PragmaIndex = field(default_factory=lambda: PragmaIndex(""))


# ----------------------------------------------------------- module naming
def module_name_for(path: str) -> str:
    """Dotted module name for ``path``, walking up through packages.

    ``src/repro/sim/kernel.py`` -> ``repro.sim.kernel`` (because
    ``src/repro/__init__.py`` exists and ``src/__init__.py`` does not).
    A file outside any package is just its stem.
    """
    abspath = os.path.abspath(path)
    directory, filename = os.path.split(abspath)
    parts = [os.path.splitext(filename)[0]]
    while os.path.isfile(os.path.join(directory, "__init__.py")):
        directory, pkg = os.path.split(directory)
        parts.append(pkg)
        if not pkg:  # pragma: no cover - filesystem root
            break
    parts.reverse()
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts) if parts else os.path.splitext(filename)[0]


def _resolve_relative(modname: str, level: int,
                      module: Optional[str]) -> Optional[str]:
    """Absolute module named by a ``from ...X import`` statement."""
    parts = modname.split(".")
    # level 1 = current package: drop the module's own last component.
    if level > len(parts):
        return None
    base = parts[:len(parts) - level]
    if module:
        base.extend(module.split("."))
    return ".".join(base) if base else None


# --------------------------------------------------------------- extraction
class _ModuleExtractor(ast.NodeVisitor):
    """Single pass over one module's AST building its summary."""

    def __init__(self, path: str, source: str, tree: ast.Module,
                 modname: Optional[str] = None):
        self.tree = tree
        modname = modname or module_name_for(path)
        self.summary = ModuleSummary(
            path=path, modname=modname,
            pragmas=PragmaIndex(source, tree=tree))
        self._aliases: Dict[str, str] = {}
        self._collect_imports(tree)
        self._collect_toplevel(tree)
        self.summary.exports = dict(self._aliases)

    # ------------------------------------------------------------- imports
    def _collect_imports(self, tree: ast.Module) -> None:
        modname = self.summary.modname
        imported: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = (alias.name if alias.asname
                              else alias.name.split(".")[0])
                    self._aliases[local] = target
                    imported.add(alias.name)
            elif isinstance(node, ast.ImportFrom):
                module = node.module
                if node.level:
                    module = _resolve_relative(modname, node.level, module)
                    if module is None:
                        continue
                if module is None:
                    continue
                imported.add(module)
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self._aliases[local] = f"{module}.{alias.name}"
                    # ``from pkg import sub`` may import a *module*; record
                    # the candidate — the import graph filters to modules
                    # that were actually analyzed.
                    imported.add(f"{module}.{alias.name}")
        self.summary.imports = sorted(imported)

    # ------------------------------------------------------- top-level defs
    def _collect_toplevel(self, tree: ast.Module) -> None:
        modname = self.summary.modname
        # First bind every top-level def/class so forward references resolve.
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._aliases[node.name] = f"{modname}.{node.name}"
            elif isinstance(node, ast.ClassDef):
                self._aliases[node.name] = f"{modname}.{node.name}"
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(node, class_name=None)
            elif isinstance(node, ast.ClassDef):
                self._add_class(node)

    def _add_class(self, node: ast.ClassDef) -> None:
        modname = self.summary.modname
        qualname = f"{modname}.{node.name}"
        bases = []
        for base in node.bases:
            resolved = self._resolve_expr(base)
            if resolved:
                bases.append(resolved)
        cls = ClassSummary(qualname=qualname, bases=bases)
        self.summary.classes[qualname] = cls
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                func = self._add_function(item, class_name=qualname)
                cls.methods[item.name] = func.qualname

    def _add_function(self, node: ast.AST,
                      class_name: Optional[str]) -> FunctionSummary:
        if class_name:
            qualname = f"{class_name}.{node.name}"
        else:
            qualname = f"{self.summary.modname}.{node.name}"
        func = FunctionSummary(
            qualname=qualname, name=node.name, lineno=node.lineno,
            is_generator=_is_generator(node), class_name=class_name)
        self.summary.functions[qualname] = func
        self._collect_body(node, func)
        return func

    # ------------------------------------------------------- function body
    def _collect_body(self, func_node: ast.AST,
                      func: FunctionSummary) -> None:
        """Record calls and direct sources, including nested defs/lambdas.

        Nested functions and lambdas are attributed to the *enclosing*
        function: a closure that reads the wall clock taints its definer.
        Class bodies nested in functions are rare and skipped.
        """
        for node in ast.walk(func_node):
            if isinstance(node, ast.Call):
                self._record_call(node, func)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                self._check_unordered_iteration(node, func)

    def _record_call(self, node: ast.Call, func: FunctionSummary) -> None:
        target = self._resolve_expr(node.func, class_ctx=func.class_name)
        if target is None:
            self._check_spawn(node, func)
            return
        func.calls.append((target, node.lineno))
        self._check_direct_source(node, target, func)
        self._check_spawn(node, func)

    def _check_spawn(self, node: ast.Call, func: FunctionSummary) -> None:
        """Record generators handed to ``X.process(...)``/``Process(...)``."""
        args: Sequence[ast.expr] = ()
        if (isinstance(node.func, ast.Attribute)
                and node.func.attr == "process" and node.args):
            args = node.args[:1]
        else:
            target = self._resolve_expr(node.func, class_ctx=func.class_name)
            if target and target.endswith(".Process") and len(node.args) >= 2:
                args = node.args[1:2]
        for arg in args:
            if isinstance(arg, ast.Call):
                spawned = self._resolve_expr(arg.func,
                                             class_ctx=func.class_name)
                if spawned:
                    func.spawns.append((spawned, arg.lineno))

    def _check_direct_source(self, node: ast.Call, target: str,
                             func: FunctionSummary) -> None:
        from repro.analysis.taint import classify_call  # local: avoid cycle
        hit = classify_call(target, node)
        if hit is not None:
            kind, description = hit
            func.sources.append((kind, description, node.lineno))

    def _check_unordered_iteration(self, node: ast.AST,
                                   func: FunctionSummary) -> None:
        """Flag ``for x in {a, b}`` / ``for x in set(...)`` iteration."""
        iter_node = node.iter
        unordered = isinstance(iter_node, (ast.Set, ast.SetComp))
        if (not unordered and isinstance(iter_node, ast.Call)):
            target = self._resolve_expr(iter_node.func,
                                        class_ctx=func.class_name)
            unordered = target == "builtins.set"
        if unordered:
            func.sources.append(
                ("unordered", "iteration over an unordered set",
                 iter_node.lineno))

    # ----------------------------------------------------------- resolution
    def _resolve_expr(self, node: ast.AST,
                      class_ctx: Optional[str] = None) -> Optional[str]:
        """Dotted target of a Name/Attribute chain, or ``self.<method>``."""
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.reverse()
        root = node.id
        if root in ("self", "cls") and class_ctx is not None:
            # Only single-level self.method() is resolvable locally;
            # self.obj.method() goes through an attribute we cannot type.
            if len(parts) == 1:
                return f"self.{parts[0]}"
            return None
        base = self._aliases.get(root)
        if base is None:
            if root in _INTERESTING_BUILTINS and not parts:
                return f"builtins.{root}"
            return None
        return ".".join([base] + parts)


def _is_generator(func_node: ast.AST) -> bool:
    """True if the function's *own* body yields (nested defs excluded)."""
    stack = list(ast.iter_child_nodes(func_node))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))
    return False


def extract_module(path: str, source: str, tree: ast.Module,
                   modname: Optional[str] = None) -> ModuleSummary:
    """Reduce one parsed module to its :class:`ModuleSummary`."""
    return _ModuleExtractor(path, source, tree, modname=modname).summary


# ------------------------------------------------------------------ linking
@dataclass(frozen=True)
class CallEdge:
    caller: str
    callee: str
    lineno: int


class CallGraph:
    """Cross-module call graph linked from a set of module summaries."""

    def __init__(self, modules: Sequence[ModuleSummary]):
        self.modules: Dict[str, ModuleSummary] = {
            mod.modname: mod for mod in modules}
        self.functions: Dict[str, FunctionSummary] = {}
        self.function_module: Dict[str, ModuleSummary] = {}
        self.classes: Dict[str, ClassSummary] = {}
        for mod in modules:
            for qualname, func in mod.functions.items():
                self.functions[qualname] = func
                self.function_module[qualname] = mod
            self.classes.update(mod.classes)
        #: caller qualname -> outgoing edges (sorted, deterministic).
        self.edges: Dict[str, List[CallEdge]] = {}
        #: callee qualname -> incoming edges.
        self.redges: Dict[str, List[CallEdge]] = {}
        self._link()

    # ------------------------------------------------------------- queries
    @property
    def import_graph(self) -> Dict[str, List[str]]:
        """modname -> imported modnames (restricted to analyzed modules)."""
        return {name: sorted(m for m in mod.imports if m in self.modules)
                for name, mod in sorted(self.modules.items())}

    def path_of(self, qualname: str) -> str:
        mod = self.function_module.get(qualname)
        return mod.path if mod is not None else "<unknown>"

    def entry_points(self) -> List[str]:
        """Functions the kernel can drive: spawned targets + generators."""
        entries: Set[str] = set()
        for qualname, func in self.functions.items():
            if func.is_generator:
                entries.add(qualname)
            for target, _ in func.spawns:
                resolved = self.resolve(target, func.class_name)
                if resolved:
                    entries.add(resolved)
        return sorted(entries)

    def callees(self, qualname: str) -> List[CallEdge]:
        return self.edges.get(qualname, [])

    def callers(self, qualname: str) -> List[CallEdge]:
        return self.redges.get(qualname, [])

    # ------------------------------------------------------------- linking
    def _link(self) -> None:
        for qualname in sorted(self.functions):
            func = self.functions[qualname]
            seen: Set[Tuple[str, int]] = set()
            out: List[CallEdge] = []
            for target, lineno in func.calls:
                resolved = self.resolve(target, func.class_name)
                if resolved is None or resolved == qualname:
                    continue
                key = (resolved, lineno)
                if key in seen:
                    continue
                seen.add(key)
                out.append(CallEdge(qualname, resolved, lineno))
            if out:
                self.edges[qualname] = out
                for edge in out:
                    self.redges.setdefault(edge.callee, []).append(edge)

    def resolve(self, target: str,
                class_ctx: Optional[str] = None) -> Optional[str]:
        """Resolve a recorded call target to a known function qualname."""
        if target.startswith("self."):
            if class_ctx is None:
                return None
            return self._resolve_method(class_ctx, target[5:])
        return self._resolve_dotted(target)

    def _resolve_method(self, class_qualname: str, method: str,
                        _depth: int = 0) -> Optional[str]:
        """Look ``method`` up on a class, then its statically known bases."""
        if _depth > 8:
            return None
        cls = self.classes.get(class_qualname)
        if cls is None:
            resolved = self._resolve_dotted(class_qualname)
            cls = self.classes.get(resolved) if resolved else None
            if cls is None:
                return None
        if method in cls.methods:
            return cls.methods[method]
        for base in cls.bases:
            found = self._resolve_method(base, method, _depth + 1)
            if found:
                return found
        return None

    def _resolve_dotted(self, target: str,
                        _depth: int = 0) -> Optional[str]:
        if _depth > 8:
            return None
        if target in self.functions:
            return target
        if target in self.classes:
            return self._resolve_method(target, "__init__", _depth + 1)
        # Follow re-export chains: find the longest known-module prefix and
        # walk the remaining attributes through that module's exports.
        parts = target.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            modname = ".".join(parts[:cut])
            mod = self.modules.get(modname)
            if mod is None:
                continue
            rest = parts[cut:]
            exported = mod.exports.get(rest[0])
            if exported is None:
                return None
            rewritten = ".".join([exported] + rest[1:])
            if rewritten == target:
                return None
            return self._resolve_dotted(rewritten, _depth + 1)
        return None
