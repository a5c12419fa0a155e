"""The shipped tree must be simlint-clean — violations fail the suite.

This is the local mirror of the ``make lint`` CI gate: any PR that
introduces a wall-clock read, global randomness, a non-event yield, an
unbalanced resource grant — or, via the whole-program passes, code that
makes any of those *reachable* from a simulation process — in
``src/repro`` fails here with file:line pointers and call chains.
"""

import os
import subprocess
import sys

import repro
from repro.analysis.callgraph import CallGraph
from repro.analysis.rules import default_rules
from repro.analysis.runner import analyze_paths

PACKAGE_DIR = os.path.dirname(os.path.abspath(repro.__file__))


def test_src_repro_is_simlint_clean():
    violations = analyze_paths([PACKAGE_DIR], default_rules()).violations
    assert not violations, "simlint violations in src/repro:\n" + "\n".join(
        violation.render() for violation in violations)


def test_src_repro_is_clean_under_whole_program_analysis():
    """The taint/flow passes find nothing reachable from sim processes."""
    result = analyze_paths([PACKAGE_DIR], default_rules())
    assert not result.violations, (
        "whole-program findings in src/repro:\n" + "\n".join(
            violation.render() for violation in result.violations))
    # The graph actually covered the tree — this is not a vacuous pass.
    graph = CallGraph(result.modules)
    assert len(graph.functions) > 500
    assert sum(len(edges) for edges in graph.edges.values()) > 300
    assert len(graph.entry_points()) > 50


def test_cli_exits_zero_on_shipped_tree():
    env = dict(os.environ)
    src_root = os.path.dirname(PACKAGE_DIR)
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-m", "repro.analysis", PACKAGE_DIR],
        capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stdout + result.stderr
