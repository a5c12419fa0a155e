"""simlint command line: ``python -m repro.analysis <paths...>``.

Exit codes: ``0`` clean, ``1`` findings, ``2`` usage or internal error —
stable enough for CI to branch on (annotate PRs on 1, fail the plumbing
on 2) instead of grepping stdout.

Beyond the per-module rules, the CLI runs the whole-program passes
(cross-module taint, flow-aware yield discipline) by default; disable
them with ``--no-whole-program``.  ``--format json|sarif`` emits
machine-readable findings, ``--baseline``/``--update-baseline`` gate on
*new* findings only, and ``--cache`` enables content-hash incremental
caching for fast repeated full-tree runs.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from typing import List, Optional

from repro.analysis.baseline import (filter_baselined, load_baseline,
                                     save_baseline)
from repro.analysis.cache import AnalysisCache
from repro.analysis.core import create_rules, registered_rules
from repro.analysis.emit import render_json, render_sarif, render_text
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
    parser.add_argument("--format", dest="fmt", default="text",
                        choices=("text", "json", "sarif"),
                        help="output format (default: text)")
    parser.add_argument("--output", metavar="FILE",
                        help="write findings to FILE instead of stdout")
    parser.add_argument("--baseline", metavar="FILE",
                        help="suppress findings recorded in this baseline "
                             "file; only new findings fail the run")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite --baseline with the current findings "
                             "and exit 0")
    parser.add_argument("--cache", metavar="FILE",
                        help="content-hash incremental cache file; "
                             "unchanged files are not re-parsed")
    parser.add_argument("--no-whole-program", action="store_true",
                        help="skip the cross-module taint/flow passes")
    parser.add_argument("--stats", action="store_true",
                        help="print analyzer statistics to stderr")
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

    whole_program = not args.no_whole_program
    config_fp = "|".join([
        "rules=" + ",".join(sorted(r.name for r in rules)),
        "allow=" + ",".join(sorted(args.wallclock_allow)),
    ])
    cache = AnalysisCache(args.cache, config_fp) if args.cache else None

    try:
        result = analyze_paths(args.paths, rules,
                               whole_program=whole_program, cache=cache)
    except FileNotFoundError as exc:
        print(f"error: no such file or directory: {exc.args[0]}",
              file=sys.stderr)
        return EXIT_ERROR
    if cache is not None:
        cache.save()

    violations = result.violations
    if select:
        violations = [v for v in violations if v.rule in set(select)]
    if disable:
        violations = [v for v in violations if v.rule not in set(disable)]

    if args.baseline and args.update_baseline:
        save_baseline(args.baseline, violations)
        if not args.quiet:
            print(f"simlint: baseline {args.baseline} updated with "
                  f"{len(violations)} finding(s)", file=sys.stderr)
        return EXIT_CLEAN
    if args.baseline:
        known = load_baseline(args.baseline)
        violations, suppressed = filter_baselined(violations, known)
        result.stats.baseline_suppressed = suppressed

    descriptions = {name: cls.description
                    for name, cls in registered_rules().items()}
    descriptions.update(WHOLE_PROGRAM_RULES)
    if args.fmt == "json":
        rendered = render_json(violations, result.stats.to_dict())
    elif args.fmt == "sarif":
        rendered = render_sarif(violations, descriptions)
    else:
        rendered = render_text(violations)

    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
    elif rendered:
        print(rendered)

    if args.stats:
        print("simlint stats: " + " ".join(
            f"{key}={value}"
            for key, value in result.stats.to_dict().items()),
            file=sys.stderr)
    if not args.quiet:
        noun = "finding" if len(violations) == 1 else "findings"
        suffix = ""
        if result.stats.baseline_suppressed:
            suffix = (f", {result.stats.baseline_suppressed} suppressed "
                      f"by baseline")
        print(f"simlint: {len(violations)} {noun}{suffix}", file=sys.stderr)
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
    if args.update_baseline and not args.baseline:
        print("error: --update-baseline requires --baseline FILE",
              file=sys.stderr)
        return EXIT_ERROR

    try:
        return _run(args)
    except Exception:  # noqa: BLE001 - CLI boundary: fail with exit code 2
        print("simlint: internal error:\n" + traceback.format_exc(),
              file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
