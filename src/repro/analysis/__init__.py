"""simlint: static analysis for determinism & simulation correctness.

The simulation's headline claim — bit-identical, fully deterministic runs
— only holds if no code path reads the host clock, draws from global
randomness, yields non-events into the kernel, or leaks resource slots.
This package makes those conventions machine-checked:

* an AST rule framework with a registry (:mod:`repro.analysis.core`);
* per-line ``# simlint: disable=<rule>`` pragmas
  (:mod:`repro.analysis.pragmas`);
* a **whole-program analyzer**: a project-wide import/call graph
  (:mod:`repro.analysis.callgraph`) feeding interprocedural taint and
  flow-aware yield-discipline passes (:mod:`repro.analysis.taint`) that
  report full call chains — ``proc -> helper -> time.time`` with
  file:line at every hop;
* one pass over the tree, :func:`~repro.analysis.runner.analyze_paths`
  (:mod:`repro.analysis.runner`);
* a CLI — ``python -m repro.analysis src/repro`` — with stable exit
  codes ``0`` clean / ``1`` findings / ``2`` error
  (:mod:`repro.analysis.cli`);
* the built-in per-module rules ``no-wallclock``, ``no-global-random``,
  ``yield-discipline``, ``resource-leak`` and ``no-topology-literals``
  (:mod:`repro.analysis.rules`).

The complementary *runtime* checks — including the lock-order deadlock
detector — live in :mod:`repro.sim.sanitizer`
(``Simulator(sanitize=True)``).  See ``docs/static_analysis.md``.
"""

from repro.analysis.callgraph import CallGraph, ModuleSummary, extract_module
from repro.analysis.core import (
    LintContext,
    Rule,
    Violation,
    create_rules,
    register,
    registered_rules,
)
from repro.analysis.pragmas import PragmaIndex
from repro.analysis.runner import (
    AnalysisResult,
    analyze_paths,
    discover_files,
    lint_source,
)
from repro.analysis.taint import WHOLE_PROGRAM_RULES, run_flow, run_taint

__all__ = [
    "AnalysisResult",
    "CallGraph",
    "LintContext",
    "ModuleSummary",
    "PragmaIndex",
    "Rule",
    "Violation",
    "WHOLE_PROGRAM_RULES",
    "analyze_paths",
    "create_rules",
    "discover_files",
    "extract_module",
    "lint_source",
    "register",
    "registered_rules",
    "run_flow",
    "run_taint",
]
