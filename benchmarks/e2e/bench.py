"""End-to-end benchmark: registry workloads, run-level and per-layer metrics.

Usage (from the repository root; ``src/`` is put on the children's path)::

    python3 benchmarks/e2e/bench.py [--workload W ...] [--runs N | --seconds S]
                                    [--seed S] [--trace [0|1]] [--check]
                                    [--out FILE]
    python3 benchmarks/e2e/bench.py --compare BASE.json NEW.json
    python3 benchmarks/e2e/bench.py --write-pins [--workload W ...]

Every experiment run happens in its own fresh interpreter (``child.py``),
one at a time, through the public ``repro.experiments.runner.
run_experiment(..., jobs=1)``; in-process memos therefore never carry over
between runs.  ``--runs N`` makes N timed passes per workload (default 3);
``--seconds S`` instead keeps starting passes while the next one is
predicted to end within S seconds (at least one).  Each run's result
digest is checked against ``pins.json`` (see ``Ledger``).

``--trace`` replaces the timed passes with one untraced and one cProfile'd
run per experiment and reports the per-layer metrics.  ``--check`` then
reruns every fanned-out experiment with ``jobs=2`` and requires the serial
digests.  Metric names, units and regression bounds are declared in the
repository's ``BENCHMARK.json``; the last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional

from child import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
SPEC_FILE = ROOT / "BENCHMARK.json"
PINS_FILE = HERE / "pins.json"


class Job(NamedTuple):
    """One ``run_experiment`` call: experiment, size profile, parameters."""

    experiment: str
    profile: str
    params: Optional[dict] = None


#: The 24 registry experiments as of this benchmark's definition; the
#: workload is fixed so that suite totals stay comparable across commits.
SUITE = (
    "fig02", "fig03", "fig06", "fig07", "fig08", "fig09", "fig11", "fig12",
    "fig13", "table2", "table3", "ablation-direct-read",
    "ablation-transport", "ablation-ring", "ablation-packet-size",
    "ablation-cache-size", "ablation-storage-tiers", "scale-clients",
    "scale-racks", "scale-churn", "load-sweep", "scale-tenants",
    "chaos-sweep", "sensitivity",
)

#: Why each workload exists is in README.md ("Workloads").
WORKLOADS: Dict[str, List[Job]] = {
    "suite-quick": [Job(name, "quick") for name in SUITE],
    "hbase": [Job("table2", "default")],
    "churn": [Job("scale-churn", "default")],
    "dfsio": [Job("fig11", "default")],
    # The registry's 4 MB racks run lasts ~1 s, too short to time.
    "racks": [Job("scale-racks", "default",
                  {"rack_counts": (1, 2, 3), "file_bytes": 16 << 20})],
}

#: Setup samples per workload: workloads with few experiments add
#: setup-only spawns until the median of ``setup_s`` rests on this many.
SETUP_SAMPLES = 11

#: A child that runs longer is killed and counted as failed.
CHILD_TIMEOUT_S = 170


# --------------------------------------------------------------- children
def spawn(job: Job, seed: int, mode: str = "run", jobs: int = 1) -> dict:
    """Run ``job`` in a fresh interpreter; return the child's report.

    Adds ``setup_s`` (spawn to builder call).  A child that crashes,
    exits nonzero or times out yields ``{"error": ...}``.
    """
    literal = repr({"experiment": job.experiment, "profile": job.profile,
                    "params": job.params, "seed": seed, "jobs": jobs,
                    "mode": mode})
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (
        os.pathsep + path if path else ""))
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), literal], cwd=ROOT,
            env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {CHILD_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        last = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return {"error": f"exit {proc.returncode}: {last}"}
    report = json.loads(lines[-1])
    report["setup_s"] = report.pop("ready") - spawned
    return report


class Ledger:
    """Judges every run of one workload and counts attempts and failures.

    A run fails when its child fails or its digest differs from the
    expected one: the seed-0 pin for seed 0 and for experiments whose
    result does not depend on the seed (``seed_free`` in ``pins.json``),
    otherwise the first digest this invocation saw for the experiment.
    """

    def __init__(self, pins: Dict[str, dict], seed: int) -> None:
        self.pins = pins
        self.seed = seed
        self.seen: Dict[str, str] = {}
        self.attempted = 0
        self.errors: List[str] = []

    def pinned(self, job: Job) -> Optional[str]:
        pin = self.pins.get(job.experiment)
        if pin is not None and (self.seed == 0 or pin["seed_free"]):
            return pin["digest"]
        return None

    def record(self, job: Job, result: dict) -> bool:
        self.attempted += 1
        error = result.get("error")
        if error is None:
            want = self.pinned(job) or self.seen.get(job.experiment)
            got = result["digest"]
            self.seen.setdefault(job.experiment, got)
            if want is not None and got != want:
                error = f"digest {got[:12]} != expected {want[:12]}"
        if error is not None:
            self.errors.append(f"{job.experiment}: {error}")
        return error is None

    @property
    def failed(self) -> int:
        return len(self.errors)


# ------------------------------------------------------------ measurement
def timed_passes(workload: str, ledger: Ledger, seed: int,
                 runs: Optional[int], seconds: Optional[float]
                 ) -> Dict[str, List[float]]:
    """Set up, then run timed passes of ``workload``; return samples of
    every end-to-end metric."""
    jobs = WORKLOADS[workload]
    spawn(jobs[0], seed, "setup")   # warm-up: bytecode cache, page cache
    setups = []
    for index in range(max(0, SETUP_SAMPLES - len(jobs))):
        report = spawn(jobs[index % len(jobs)], seed, "setup")
        if "setup_s" in report:
            setups.append(report["setup_s"])
    passes = []
    started = time.monotonic()
    while True:
        pass_started = time.monotonic()
        results = [spawn(job, seed) for job in jobs]
        setups += [r["setup_s"] for r in results if "setup_s" in r]
        if not all([ledger.record(job, r) for job, r in zip(jobs, results)]):
            break
        passes.append(results)
        now = time.monotonic()
        if runs is not None:
            if len(passes) >= runs:
                break
        elif now - started + (now - pass_started) > seconds:
            break
    # Seed-dependent experiments have no pin for this seed: a second
    # fresh-interpreter run must reproduce the first digest.
    for job in jobs:
        if ledger.pinned(job) is None:
            ledger.record(job, spawn(job, seed))
    walls = [sum(r["wall_s"] for r in p) for p in passes]
    return {
        "wall_s": walls,
        "setup_s": setups,
        "peak_rss_mb": [max(r["rss_mb"] for r in p) for p in passes],
        "sim_s_per_wall_s": [sum(r["sim_s"] for r in p) / wall
                             for p, wall in zip(passes, walls)],
    }


def traced_run(workload: str, ledger: Ledger, seed: int
               ) -> Dict[str, List[float]]:
    """One untraced and one profiled run per experiment; return the
    per-layer metrics (one sample each)."""
    pairs = []
    for job in WORKLOADS[workload]:
        base, traced = spawn(job, seed), spawn(job, seed, "trace")
        base_ok = ledger.record(job, base)
        if ledger.record(job, traced) and base_ok:
            pairs.append((base, traced))
    if not pairs:
        return {}
    base = [b for b, _ in pairs]
    traced = [t for _, t in pairs]

    def total(runs, key, sub=None):
        return sum(run[key] if sub is None else run[key][sub] for run in runs)

    wall = total(base, "wall_s")
    events = total(base, "kernel", "events_processed")
    profiled = total(traced, "profiled_s")
    metrics = {f"{layer}.self_s": total(traced, "self_s", layer)
               for layer in LAYERS}
    counts = {name: total(traced, "counts", name)
              for name in traced[0]["counts"]}
    checksums = counts["storage.content.checksums"]
    metrics.update(counts)
    metrics.update({
        "sim.kernel.drain_s": total(base, "drain_s"),
        "cluster.build_s": total(base, "build_s"),
        "sim.kernel.events": events,
        "sim.kernel.events_per_s": events / wall,
        "sim.kernel.cancelled_ratio":
            total(base, "kernel", "cancelled_discarded") / max(events, 1),
        "sim.kernel.wheel_overflow": total(base, "kernel", "wheel_overflow"),
        "sim.kernel.heap_high_water":
            max(b["kernel"]["heap_high_water"] for b in base),
        "sim.kernel.simulators": total(base, "kernel", "simulators"),
        "hostmodel.epochs_formed": total(base, "epochs", "epochs_formed"),
        "hostmodel.epochs_rejected": total(base, "epochs", "epochs_rejected"),
        "storage.content.updates_per_checksum":
            counts["storage.content.sha256_updates"] / max(checksums, 1),
        "trace.overhead": total(traced, "wall_s") / wall,
        "trace.profiled_s": profiled,
        "trace.fold_coverage":
            sum(metrics[f"{layer}.self_s"] for layer in LAYERS) / profiled,
    })
    return {name: [value] for name, value in metrics.items()}


def check_parallel(workload: str, ledger: Ledger, seed: int) -> None:
    """Rerun each fanned-out experiment with ``jobs=2``; the ledger holds
    it to the serial digest."""
    sys.path.insert(0, str(SRC))
    from repro.experiments import registry
    for job in WORKLOADS[workload]:
        if registry.get(job.experiment).fanout is not None:
            ledger.record(job, spawn(job, seed, jobs=2))


# --------------------------------------------------------------- reporting
def summary(values: List[float]) -> dict:
    """Median, quartiles (``statistics.quantiles(n=4)``) and count."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def load_spec() -> dict:
    with open(SPEC_FILE) as handle:
        return json.load(handle)


def git_info() -> Dict[str, object]:
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    try:
        return {"commit": git("rev-parse", "HEAD"),
                "dirty": bool(git("status", "--porcelain"))}
    except (OSError, subprocess.CalledProcessError):
        return {"commit": "unknown", "dirty": None}


def compare(base_path: str, new_path: str, spec: dict) -> int:
    """Print both sides per workload and metric with a verdict; return 1
    when any (workload, metric) is ``worse``."""
    with open(base_path) as handle:
        base = json.load(handle)
    with open(new_path) as handle:
        new = json.load(handle)
    any_worse = False
    print(f"base {base.get('commit', '?')[:12]}  new "
          f"{new.get('commit', '?')[:12]}")
    for workload in base["workloads"]:
        if workload not in new["workloads"]:
            continue
        for metric in spec["end_to_end"] + spec["per_layer"]:
            name = metric["name"]
            old = base["workloads"][workload]["samples"].get(name)
            cur = new["workloads"][workload]["samples"].get(name)
            if not old or not cur:
                continue
            verdict = judge(old, cur, metric)
            any_worse |= verdict == "worse"
            a, b = summary(old), summary(cur)
            print(f"{workload:12s} {name:34s} "
                  f"{a['median']:12.5g} [{a['q1']:.5g}, {a['q3']:.5g}] -> "
                  f"{b['median']:12.5g} [{b['q1']:.5g}, {b['q3']:.5g}] "
                  f"{metric['unit']:9s} {verdict}")
    return 1 if any_worse else 0


def judge(old: List[float], new: List[float], metric: dict) -> str:
    """``worse`` / ``unresolved`` / ``ok`` for one metric.

    Per-layer metrics carry no bound and get ``-`` (shown for context).
    ``worse``: the median moved the wrong way by more than the bound, and
    either the spread is within the bound or every new run is worse than
    every old one.  ``unresolved``: the spread (the wider side's IQR over
    its median) exceeds the bound and the runs do not separate.
    """
    bound = metric.get("bound")
    if bound is None:
        return "-"
    lower = metric["better"] == "lower"
    a, b = summary(old), summary(new)
    if a["median"] == 0:
        change = 0.0 if b["median"] == 0 else float("inf")
    else:
        change = (b["median"] - a["median"]) / abs(a["median"])
    worse_by = change if lower else -change
    spread = max((s["q3"] - s["q1"]) / abs(s["median"])
                 if s["median"] else 0.0 for s in (a, b))
    new_worse = (min(new) > max(old)) if lower else (max(new) < min(old))
    new_better = (max(new) < min(old)) if lower else (min(new) > max(old))
    if worse_by > bound and (spread <= bound or new_worse):
        return "worse"
    if spread > bound and not new_better:
        return "unresolved"
    return "ok"


def write_pins(workloads: List[str]) -> None:
    """Pin the seed-0 digest of every experiment in ``workloads``;
    ``seed_free`` records whether seed 1 gives the same result."""
    pins = json.loads(PINS_FILE.read_text()) if PINS_FILE.exists() else {}
    for workload in workloads:
        entry = pins.setdefault(workload, {})
        for job in WORKLOADS[workload]:
            first, second = spawn(job, 0), spawn(job, 1)
            for report in (first, second):
                if "error" in report:
                    raise SystemExit(f"{job.experiment}: {report['error']}")
            entry[job.experiment] = {
                "digest": first["digest"],
                "seed_free": first["digest"] == second["digest"]}
            print(f"{workload:12s} {job.experiment:24s} "
                  f"{first['digest'][:12]} seed_free="
                  f"{entry[job.experiment]['seed_free']}")
    PINS_FILE.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")


# --------------------------------------------------------------------- cli
def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", nargs="+", action="extend",
                        choices=list(WORKLOADS), metavar="W",
                        help=f"workloads to run (default: all of "
                             f"{', '.join(WORKLOADS)})")
    budget = parser.add_mutually_exclusive_group()
    budget.add_argument("--runs", type=int, help="timed passes per workload "
                        "(default 3)")
    budget.add_argument("--seconds", type=float,
                        help="time budget per workload instead of --runs")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="per-layer traced run instead "
                        "of timed passes")
    parser.add_argument("--check", action="store_true",
                        help="also rerun fanned-out experiments with jobs=2")
    parser.add_argument("--out", help="write the run record to this file")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    parser.add_argument("--write-pins", action="store_true")
    args = parser.parse_args(argv)
    if args.runs is not None and args.runs < 1:
        parser.error("--runs must be >= 1")
    if args.seconds is not None and args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if args.runs is None and args.seconds is None:
        args.runs = 3
    args.workload = list(dict.fromkeys(args.workload or WORKLOADS))
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not SPEC_FILE.is_file():
        print(f"error: {SPEC_FILE} not found", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.compare:
        return compare(*args.compare, spec)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    # A terminated benchmark still kills and reaps its running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # Set-up: every child imports cached bytecode, also where the
    # environment forbids writing it (PYTHONDONTWRITEBYTECODE), so no
    # run pays for compiling.
    compileall.compile_dir(str(SRC / "repro"), quiet=1)
    if args.write_pins:
        write_pins(args.workload)
        return 0
    pins = json.loads(PINS_FILE.read_text())
    unit_of = {m["name"]: m["unit"]
               for m in spec["end_to_end"] + spec["per_layer"]}
    declared = [m["name"] for m in
                spec["per_layer" if args.trace else "end_to_end"]]
    results: Dict[str, dict] = {}
    attempted = failed = 0
    emitted: Dict[str, dict] = {}
    for workload in args.workload:
        ledger = Ledger(pins.get(workload, {}), args.seed)
        if args.trace:
            samples = traced_run(workload, ledger, args.seed)
        else:
            samples = timed_passes(workload, ledger, args.seed, args.runs,
                                   args.seconds)
        if args.check:
            check_parallel(workload, ledger, args.seed)
        # Reported as the share that passed: the benchmark's metrics are
        # never 0, which the failure share normally is.
        samples["pass_ratio"] = [
            (ledger.attempted - ledger.failed) / ledger.attempted]
        attempted += ledger.attempted
        failed += ledger.failed
        for error in ledger.errors:
            print(f"[{workload}] FAILED {error}")
        for name, values in samples.items():
            if not values:
                continue
            s = summary(values)
            print(f"[{workload}] {name:38s} {s['median']:14.6g} "
                  f"{unit_of.get(name, ''):9s} (q1 {s['q1']:.6g}, "
                  f"q3 {s['q3']:.6g}, n={s['n']})")
            if name in declared:
                key = name if len(args.workload) == 1 \
                    else f"{workload}.{name}"
                emitted[key] = {"value": s["median"], "unit": unit_of[name]}
        results[workload] = {
            "attempted": ledger.attempted, "failed": ledger.failed,
            "errors": ledger.errors, "samples": samples}
    if args.out:
        record = {**git_info(), "host": socket.gethostname(),
                  "cpu_count": os.cpu_count(),
                  "python": platform.python_version(), "seed": args.seed,
                  "runs": args.runs, "seconds": args.seconds,
                  "trace": args.trace, "workloads": results}
        with open(args.out, "w") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
            handle.write("\n")
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": emitted}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
