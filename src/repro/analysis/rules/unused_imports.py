"""Rule ``unused-import``: a top-level import whose name is never used.

An import nobody reads is a false dependency: it makes a module look
coupled to another, keeps deleted APIs alive in review ("something still
imports it"), and costs import time.  The rule checks the import
statements directly in the module body (not those nested in functions or
in ``if``/``try`` blocks) and flags every bound name that never appears
again in the module — as a ``Name`` anywhere in the tree or inside a
string annotation (``"Optional[int]"``).

Exempt:

* ``__init__.py`` files, whose imports are package re-exports;
* ``from __future__ import ...`` (compiler directives, never referenced);
* names listed in the module's ``__all__`` (explicit re-exports).

An import kept only for its side effect (say, registering a plugin) may
carry ``# simlint: disable=unused-import`` on the line of the name.
"""

from __future__ import annotations

import ast
import os
from typing import Iterator, Set

from repro.analysis.core import LintContext, Rule, Violation, register


def _exported(tree: ast.Module) -> Set[str]:
    """Names listed in a module-level ``__all__`` list or tuple."""
    names: Set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            if any(isinstance(t, ast.Name) and t.id == "__all__"
                   for t in targets) and isinstance(
                       node.value, (ast.List, ast.Tuple)):
                names.update(item.value for item in node.value.elts
                             if isinstance(item, ast.Constant)
                             and isinstance(item.value, str))
    return names


def _annotation_names(annotation: ast.AST) -> Set[str]:
    """Names referenced from string literals inside an annotation."""
    names: Set[str] = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names.update(sub.id for sub in ast.walk(parsed)
                         if isinstance(sub, ast.Name))
    return names


def _used_names(tree: ast.Module) -> Set[str]:
    used: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
    return used


@register
class UnusedImportRule(Rule):
    name = "unused-import"
    description = ("flags module-level imports whose name is never used "
                   "(skips __init__.py, __future__ and __all__ names)")

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        if os.path.basename(ctx.path) == "__init__.py":
            return
        used = _used_names(ctx.tree) | _exported(ctx.tree)
        for node in ctx.tree.body:
            if isinstance(node, ast.ImportFrom):
                if node.module == "__future__":
                    continue
            elif not isinstance(node, ast.Import):
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                # `import a.b` binds `a`; `as` binds the alias.
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    yield self.violation(
                        ctx, alias, f"{bound!r} is imported but never used")
