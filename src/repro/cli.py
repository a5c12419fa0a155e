"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` — enumerate the registered experiments.
* ``run <name> [--quick|--paper] [--jobs N] [--seed S] [--json OUT]`` — run
  one experiment (or ``all``) and print its paper-style table(s).
  ``--jobs`` fans sweep-shaped experiments out over worker processes;
  parallel and serial runs produce byte-identical results.
* ``profile <name> [--quick|--paper] [--memory] [--kernel] [--json OUT]``
  — run one experiment under the profiling harness (cProfile + kernel
  counters; see :mod:`repro.perf`) and print the hot functions and
  events/sec summary.  ``--kernel`` adds the event-heap breakdown
  (events, cancelled timers discarded, compactions, high water).
* ``demo`` — the quickstart: vanilla vs vRead on one file, verified.

The experiment table itself lives in :mod:`repro.experiments.registry`;
this module is a thin client of it.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, Optional

from repro.experiments import registry

#: name -> one-line description, in report order (mirrors the registry).
EXPERIMENTS: Dict[str, str] = {
    spec.name: spec.title for spec in registry.specs()
}


def _profile(args) -> str:
    if getattr(args, "paper", False):
        return "paper"
    return "quick" if args.quick else "default"


def _runner_for(name: str, quick: bool) -> Callable[[], object]:
    """Compat shim for the pre-registry CLI: a zero-arg runner for ``name``.

    New code should call :func:`repro.experiments.runner.run_experiment`
    directly (which also accepts ``jobs`` and ``seed``).
    """
    from repro.experiments import runner

    registry.get(name)  # raise KeyError early for unknown names
    profile = "quick" if quick else "default"
    return lambda: runner.run_experiment(name, profile=profile)


def cmd_list(_args) -> int:
    width = max(len(name) for name in EXPERIMENTS)
    for name, description in EXPERIMENTS.items():
        print(f"  {name.ljust(width)}  {description}")
    print("\nrun one with: python -m repro run <name>   (or 'all'; "
          "--jobs N parallelizes sweeps)")
    return 0


def cmd_run(args) -> int:
    if args.experiment == "all":
        from repro.experiments import run_all
        argv = []
        if args.quick:
            argv.append("--quick")
        if args.paper:
            argv.append("--paper")
        if args.jobs != 1:
            argv += ["--jobs", str(args.jobs)]
        return run_all.main(argv)
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
        top=args.top, memory=args.memory, kernel_breakdown=args.kernel)
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
                            help="also write the result as JSON to OUT")
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
    parser_prof.add_argument("--kernel", action="store_true",
                             help="also break down the event heap "
                                  "(events, cancelled discarded, "
                                  "compactions, high water)")
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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
