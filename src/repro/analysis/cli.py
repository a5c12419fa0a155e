"""simlint command line: ``python -m repro.analysis <paths...>``.

Exit codes: ``0`` clean, ``1`` findings, ``2`` usage or internal error —
stable enough for CI to branch on (annotate PRs on 1, fail the plumbing
on 2) instead of grepping stdout.

Every run applies the per-module rules and the whole-program passes
(cross-module taint, flow-aware yield discipline) and prints one
``file:line:col: rule: message`` finding per violation, with the call
chain under each whole-program finding.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from typing import List, Optional

from repro.analysis.core import create_rules, registered_rules
from repro.analysis.runner import analyze_paths
import repro.analysis.rules  # simlint: disable=unused-import - registers the rules
from repro.analysis.rules.wallclock import NoWallclockRule
from repro.analysis.taint import WHOLE_PROGRAM_RULES

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="simlint: determinism & simulation-correctness checks")
    parser.add_argument("paths", nargs="*",
                        help="files or directories to analyze")
    parser.add_argument("--list-rules", action="store_true",
                        help="list the registered rules and exit")
    parser.add_argument("--select", metavar="RULES",
                        help="comma-separated rule names to run "
                             "(default: all)")
    parser.add_argument("--disable", metavar="RULES", default="",
                        help="comma-separated rule names to skip")
    parser.add_argument("--wallclock-allow", metavar="GLOB", action="append",
                        default=[],
                        help="path glob exempt from no-wallclock "
                             "(repeatable)")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="suppress the summary line")
    return parser


def _list_rules() -> int:
    rules = dict(registered_rules())
    entries = [(name, cls.description) for name, cls in rules.items()]
    entries += [(name, desc) for name, desc in WHOLE_PROGRAM_RULES.items()]
    entries.sort()
    width = max(len(name) for name, _ in entries)
    for name, description in entries:
        print(f"  {name.ljust(width)}  {description}")
    return EXIT_CLEAN


def _run(args: argparse.Namespace) -> int:
    select = args.select.split(",") if args.select else None
    disable = [d for d in args.disable.split(",") if d]
    wp_names = set(WHOLE_PROGRAM_RULES)
    module_select = ([s for s in select if s not in wp_names]
                     if select else None)
    module_disable = [d for d in disable if d not in wp_names]
    try:
        rules = create_rules(select=module_select or None,
                             disable=module_disable)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_ERROR
    if args.wallclock_allow:
        for index, rule in enumerate(rules):
            if isinstance(rule, NoWallclockRule):
                rules[index] = NoWallclockRule(allow=args.wallclock_allow)
    if select and module_select == []:
        # Only whole-program rules selected: run no per-module rules.
        rules = []

    try:
        result = analyze_paths(args.paths, rules)
    except FileNotFoundError as exc:
        print(f"error: no such file or directory: {exc.args[0]}",
              file=sys.stderr)
        return EXIT_ERROR

    violations = result.violations
    if select:
        violations = [v for v in violations if v.rule in set(select)]
    if disable:
        violations = [v for v in violations if v.rule not in set(disable)]

    for violation in violations:
        print(violation.render())
    if not args.quiet:
        noun = "finding" if len(violations) == 1 else "findings"
        print(f"simlint: {len(violations)} {noun}", file=sys.stderr)
    return EXIT_FINDINGS if violations else EXIT_CLEAN


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        return _list_rules()

    if not args.paths:
        parser.print_usage(sys.stderr)
        print("error: no paths given (or use --list-rules)", file=sys.stderr)
        return EXIT_ERROR

    try:
        return _run(args)
    except Exception:  # noqa: BLE001 - CLI boundary: fail with exit code 2
        print("simlint: internal error:\n" + traceback.format_exc(),
              file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
