"""File discovery and analysis orchestration for simlint.

:func:`analyze_paths` is the one pass: each file goes through
:func:`lint_module` — parse, extract its
:class:`~repro.analysis.callgraph.ModuleSummary`, run the per-module AST
rules, filter by pragma, flag ``unknown-pragma`` mentions — and the
summaries are then linked into the project-wide call graph for the
interprocedural taint/flow families.  :func:`lint_source` runs the same
per-module routine over one source string.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.callgraph import ModuleSummary, extract_module
from repro.analysis.core import LintContext, Rule, Violation, registered_rules
from repro.analysis.imports import collect_aliases
from repro.analysis.pragmas import unknown_pragma_mentions
from repro.analysis.rules import default_rules
from repro.analysis.taint import WHOLE_PROGRAM_RULES, run_whole_program


def discover_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of unique ``.py`` files.

    Directories are walked without following symlinks; a file named
    explicitly is taken as given, whatever its extension.
    """
    found: Set[str] = set()
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = [d for d in dirs if d != "__pycache__"]
                found.update(os.path.join(root, f)
                             for f in files if f.endswith(".py"))
        elif os.path.isfile(path):
            found.add(path)
        else:
            raise FileNotFoundError(path)
    return sorted(found)


def known_rule_names(rules: Iterable[Rule] = ()) -> Set[str]:
    """Every rule name a pragma may legitimately reference."""
    names = set(registered_rules()) | set(WHOLE_PROGRAM_RULES)
    names.update(rule.name for rule in rules)
    names.update({"syntax-error", "unknown-pragma"})
    return names


def lint_module(path: str, source: str, rules: Sequence[Rule],
                known: Set[str]
                ) -> Tuple[Optional[ModuleSummary], List[Violation]]:
    """Parse one module and run the per-module rules over it.

    Returns the module's summary (``None`` on a syntax error) and its
    pragma-filtered violations, ``unknown-pragma`` warnings included.
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return None, [Violation(path=path, line=exc.lineno or 0,
                                col=(exc.offset or 0) or 1,
                                rule="syntax-error", message=str(exc.msg))]
    ctx = LintContext(path=path, source=source, tree=tree,
                      aliases=collect_aliases(tree))
    summary = extract_module(path, source, tree)
    pragmas = summary.pragmas
    violations = [v for rule in rules for v in rule.check(ctx)
                  if not pragmas.is_disabled(v.line, v.rule)]
    violations.extend(
        Violation(path=path, line=line, col=1, rule="unknown-pragma",
                  message=(f"pragma disables unknown rule {rule!r}; "
                           f"it suppresses nothing (see --list-rules)"))
        for line, rule in unknown_pragma_mentions(pragmas, known))
    return summary, violations


def lint_source(source: str, rules: Iterable[Rule],
                path: str = "<string>") -> List[Violation]:
    """Lint one module's source text; returns pragma-filtered violations."""
    rules = list(rules)
    _, violations = lint_module(path, source, rules, known_rule_names(rules))
    return sorted(violations)


@dataclass
class AnalysisResult:
    violations: List[Violation] = field(default_factory=list)
    modules: List[ModuleSummary] = field(default_factory=list)


def analyze_paths(paths: Sequence[str],
                  rules: Optional[Iterable[Rule]] = None) -> AnalysisResult:
    """Run per-module rules and the whole-program passes over ``paths``."""
    rules = default_rules() if rules is None else list(rules)
    known = known_rule_names(rules)
    result = AnalysisResult()
    for path in discover_files(paths):
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
        summary, violations = lint_module(path, source, rules, known)
        if summary is not None:
            result.modules.append(summary)
        result.violations.extend(violations)
    result.violations.extend(run_whole_program(result.modules))

    result.violations.sort()
    return result
