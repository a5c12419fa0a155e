"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` — enumerate the registered experiments.
* ``run <name> [--quick|--paper] [--jobs N] [--seed S] [--json OUT]`` — run
  one experiment and print its paper-style table(s).
  ``--jobs`` fans sweep-shaped experiments out over worker processes;
  parallel and serial runs produce byte-identical results.
* ``run all [--quick|--paper] [--ablations] [--jobs N] [--seed S]`` — the
  full paper-comparison report: every experiment of the ``paper`` group
  (plus the ablation and extension studies with ``--ablations``) in
  registry order, each with its host wall time and headline numbers.
* ``profile <name> [--quick|--paper] [--memory] [--json OUT]``
  — run one experiment under the profiling harness (cProfile + kernel
  counters; see :mod:`repro.perf`) and print the hot functions and the
  events/sec, cancelled-timer and heap high-water summary.
* ``demo`` — the quickstart: vanilla vs vRead on one file, verified.

The experiment table itself lives in :mod:`repro.experiments.registry`;
this module is a thin client of it.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Dict, Optional

from repro.experiments import registry

#: name -> one-line description, in report order (mirrors the registry).
EXPERIMENTS: Dict[str, str] = {
    spec.name: spec.title for spec in registry.specs()
}


def _profile(args) -> str:
    if getattr(args, "paper", False):
        return "paper"
    return "quick" if args.quick else "default"


def cmd_list(_args) -> int:
    width = max(len(name) for name in EXPERIMENTS)
    for name, description in EXPERIMENTS.items():
        print(f"  {name.ljust(width)}  {description}")
    print("\nrun one with: python -m repro run <name>   (or 'all'; "
          "--jobs N parallelizes sweeps)")
    return 0


def _run_report(args) -> int:
    """``run all``: every experiment of the report's groups, in order."""
    from repro.experiments import runner

    groups = (("paper", "ablation", "extension") if args.ablations
              else ("paper",))
    # One table of measured sweep points for the whole report: Figs 11-13
    # share their TestDFSIO cells, so each cell runs once.
    cells = {}
    # Legitimate wall-clock use: this times how long the *experiment runner*
    # takes on the host machine (reported as "wall time"), not anything
    # inside the simulation — simulated time comes only from Simulator.now.
    for spec in registry.specs(groups):
        started = time.time()  # simlint: disable=no-wallclock
        result = runner.run_experiment(spec.name, profile=_profile(args),
                                       jobs=args.jobs, seed=args.seed,
                                       cells=cells)
        elapsed = time.time() - started  # simlint: disable=no-wallclock
        print(f"\n{'=' * 72}\n{spec.figure}  (wall time {elapsed:.1f}s)\n"
              f"{'=' * 72}")
        print(result.render())
        if spec.headline is not None:
            for line in spec.headline(result):
                print(f"  {line}")
    return 0


def cmd_run(args) -> int:
    if args.experiment == "all":
        return _run_report(args)
    from repro.experiments import runner
    try:
        registry.get(args.experiment)
    except KeyError:
        print(f"unknown experiment {args.experiment!r}; "
              f"try: python -m repro list", file=sys.stderr)
        return 2
    result = runner.run_experiment(args.experiment, profile=_profile(args),
                                   jobs=args.jobs, seed=args.seed)
    print(result.render())
    if args.json:
        runner.write_json(result, args.json)
        print(f"\nwrote {args.json}")
    return 0


def cmd_profile(args) -> int:
    from repro.perf import profiler

    try:
        registry.get(args.experiment)
    except KeyError as error:
        print(error.args[0], file=sys.stderr)
        return 2
    report = profiler.profile_experiment(
        args.experiment, profile=_profile(args), seed=args.seed,
        top=args.top, memory=args.memory)
    print(report.render())
    if args.json:
        profiler.write_json(report, args.json)
        print(f"\nwrote {args.json}")
    return 0


def _demo(_args) -> int:
    from repro.cluster import VirtualHadoopCluster
    from repro.storage.content import PatternSource

    payload = PatternSource(32 << 20, seed=42)
    for mode in ("vanilla", "vRead"):
        cluster = VirtualHadoopCluster(vread=(mode == "vRead"))

        def load():
            yield from cluster.write_dataset("/demo", payload,
                                             favored=["dn1"])

        cluster.run(cluster.sim.process(load()))
        cluster.settle()
        cluster.drop_all_caches()
        start = cluster.sim.now

        def read():
            source = yield from cluster.clients.get().read_file("/demo")
            return source

        source = cluster.run(cluster.sim.process(read()))
        elapsed = cluster.sim.now - start
        if not source.same_bytes(payload):
            print(f"{mode}: data read from /demo does not match the "
                  f"written payload", file=sys.stderr)
            return 1
        print(f"{mode:8s} 32MB cold read: {elapsed * 1e3:7.1f} ms "
              f"({32 / elapsed:5.0f} MB/s) — data verified")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="vRead (Middleware '15) reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    parser_list = sub.add_parser("list", help="list experiments")
    parser_list.set_defaults(func=cmd_list)

    parser_run = sub.add_parser("run", help="run an experiment (or 'all')")
    parser_run.add_argument("experiment")
    parser_run.add_argument("--quick", action="store_true",
                            help="smaller datasets")
    parser_run.add_argument("--paper", action="store_true",
                            help="paper-sized datasets")
    parser_run.add_argument("--jobs", type=int, default=1, metavar="N",
                            help="worker processes for sweep fan-out "
                                 "(default: 1 = serial)")
    parser_run.add_argument("--seed", type=int, default=0, metavar="S",
                            help="root seed for seeded sweeps (default: 0)")
    parser_run.add_argument("--json", metavar="OUT",
                            help="also write the result as JSON to OUT "
                                 "(not with 'all')")
    parser_run.add_argument("--ablations", action="store_true",
                            help="with 'all': also run the ablation and "
                                 "extension studies")
    parser_run.set_defaults(func=cmd_run)

    parser_prof = sub.add_parser(
        "profile", help="profile an experiment (cProfile + kernel counters)")
    parser_prof.add_argument("experiment")
    parser_prof.add_argument("--quick", action="store_true",
                             help="smaller datasets")
    parser_prof.add_argument("--paper", action="store_true",
                             help="paper-sized datasets")
    parser_prof.add_argument("--seed", type=int, default=0, metavar="S",
                             help="root seed for seeded sweeps (default: 0)")
    parser_prof.add_argument("--top", type=int, default=15, metavar="N",
                             help="hot functions to show (default: 15)")
    parser_prof.add_argument("--memory", action="store_true",
                             help="also trace allocations (tracemalloc; "
                                  "slower)")
    parser_prof.add_argument("--json", metavar="OUT",
                             help="also write the report as JSON to OUT")
    parser_prof.set_defaults(func=cmd_profile)

    parser_demo = sub.add_parser("demo", help="vanilla-vs-vRead quick demo")
    parser_demo.set_defaults(func=_demo)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "quick", False) and getattr(args, "paper", False):
        parser.error("--quick and --paper are mutually exclusive")
    if args.command == "run":
        if args.experiment == "all" and args.json:
            parser.error("--json writes one experiment; it cannot be "
                         "combined with 'all'")
        if args.ablations and args.experiment != "all":
            parser.error("--ablations only applies to 'all'")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
