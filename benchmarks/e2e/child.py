"""Run one registry experiment in a fresh interpreter and report on it.

``bench.py`` spawns ``python child.py "<job literal>"`` once per run, so
no in-process memo (``dfsio_sweep._cache``, the class-level
``PatternSource`` cache, ...) survives from one run into the next.  The
job is a Python literal (tuples survive the trip, unlike JSON)::

    {"experiment": "scale-racks", "profile": "default",
     "params": {"rack_counts": (1, 2, 3)}, "seed": 0, "jobs": 1,
     "mode": "run"}          # "setup" | "run" | "trace"

The child prints one JSON object as the last line of its stdout.  Every
mode reports ``ready``: the system-wide ``time.monotonic()`` (comparable
across processes on Linux) taken just before the builder call, after the
interpreter started, ``repro`` was imported, the spec was looked up and
its builder resolved.  ``bench.py`` subtracts its spawn time from it to
get ``setup_s``.  ``"setup"`` stops there.  ``"run"`` and ``"trace"``
call ``repro.experiments.runner.run_experiment`` and add its wall time,
result digest, peak RSS, simulated seconds and kernel counters;
``"trace"`` runs it under cProfile and adds the per-layer fold.

No file under ``src/`` is changed: spans come from wrappers this module
installs on ``Simulator.run``/``run_until_complete`` and
``VirtualHadoopCluster.__init__``.
"""

from __future__ import annotations

import ast
import cProfile
import hashlib
import json
import os
import resource
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Tuple

#: Layers self time is folded into, in report order.  A repro module
#: belongs to the first layer its dotted path (relative to the package)
#: starts with; see ``layer_of``.
LAYERS = (
    "sim.kernel", "sim.events", "sim.process", "sim.resources",
    "hostmodel", "storage.content", "storage.pagecache", "storage",
    "net", "virt", "hdfs", "core", "metrics", "load", "faults",
    "cluster", "workloads", "experiments",
)

#: (module path, function name) -> per-layer count it feeds.  The cProfile
#: call count of each matching function is summed.  Only plain functions
#: are counted: cProfile counts every resumption of a generator function.
_COUNTED = {
    ("sim/process.py", "_resume"): "sim.process.resumes",
    ("sim/process.py", "__init__"): "sim.process.spawned",
    ("sim/resources.py", "request"): "sim.resources.requests",
    # CPU bursts: Thread.run and CpuScheduler.execute both hand out the
    # burst generator.
    ("hostmodel/cpu.py", "run"): "hostmodel.executes",
    ("hostmodel/cpu.py", "execute"): "hostmodel.executes",
    ("storage/content.py", "checksum"): "storage.content.checksums",
}

_SHA_UPDATE = "<method 'update' of '_hashlib.HASH' objects>"


def layer_of(relpath: str) -> str:
    """Layer of a module given its path relative to the ``repro`` package.

    >>> layer_of("storage/content.py"), layer_of("storage/disk.py")
    ('storage.content', 'storage')
    """
    dotted = relpath.removesuffix(".py").replace("/", ".")
    for layer in LAYERS:
        if dotted == layer or dotted.startswith(layer + "."):
            return layer
    # The other sim modules (rng, sanitizer) support the kernel; the
    # package root and its CLI/analysis/perf tooling, which a run barely
    # touches, count as the experiment layer.
    return "sim.kernel" if dotted.startswith("sim.") else "experiments"


def fold_profile(stats: Dict[Tuple, Tuple], package_dir: str
                 ) -> Tuple[Dict[str, float], float, Dict[str, int]]:
    """Fold cProfile ``stats`` (``pstats.Stats.stats``) into layers.

    Returns ``(self seconds per layer, total profiled seconds, counts)``.
    Functions in ``package_dir`` are charged to their own layer.  Builtins
    and other non-repro functions are charged to their callers in
    proportion to the time each caller's calls took, walking up through
    non-repro callers until repro code is reached; time that no repro
    caller reaches stays unattributed (so the fold's coverage is
    ``sum(self seconds) / total``).
    """
    prefix = os.path.join(os.path.realpath(package_dir), "")
    own: Dict[Tuple, str] = {}
    relpaths: Dict[Tuple, str] = {}
    for func in stats:
        path = os.path.realpath(func[0]) if func[0] != "~" else ""
        if path.startswith(prefix):
            relpaths[func] = path[len(prefix):].replace(os.sep, "/")
            own[func] = layer_of(relpaths[func])

    shares_memo: Dict[Tuple, Dict[str, float]] = {}

    def shares(func, visiting) -> Dict[str, float]:
        if func in own:
            return {own[func]: 1.0}
        if func in shares_memo:
            return shares_memo[func]
        # An edge's third field is the callee's own time spent on behalf
        # of that caller.
        callers = stats[func][4] if func in stats else {}
        weights = {caller: edge[2] for caller, edge in callers.items()
                   if caller not in visiting and edge[2] > 0}
        total = sum(weights.values())
        result: Dict[str, float] = defaultdict(float)
        visiting = visiting | {func}
        for caller, weight in weights.items():
            for layer, share in shares(caller, visiting).items():
                result[layer] += share * weight / total
        shares_memo[func] = dict(result)
        return shares_memo[func]

    self_s = {layer: 0.0 for layer in LAYERS}
    profiled = 0.0
    for func, (_cc, _nc, tottime, _ct, _callers) in stats.items():
        profiled += tottime
        for layer, share in shares(func, frozenset()).items():
            self_s[layer] += tottime * share

    counts = {name: 0 for name in _COUNTED.values()}
    counts["storage.content.sha256_updates"] = 0
    for func, (_cc, ncalls, _tt, _ct, callers) in stats.items():
        key = (relpaths.get(func), func[2])
        if key in _COUNTED:
            counts[_COUNTED[key]] += ncalls
        elif func[0] == "~" and func[2] == _SHA_UPDATE:
            counts["storage.content.sha256_updates"] += sum(
                edge[1] for caller, edge in callers.items()
                if relpaths.get(caller) == "storage/content.py")
    return self_s, profiled, counts


class Spans:
    """Host time inside simulator drains and cluster construction, plus
    the simulated seconds every simulator reached.

    Installed as class-level wrappers; only the outermost call of each
    kind is timed, so a drain inside a drain is not counted twice.
    """

    def __init__(self) -> None:
        self.seconds = {"drain": 0.0, "build": 0.0}
        self.sim_s = 0.0
        self._depth = {"drain": 0, "build": 0}

    def _timed(self, kind: str, method: Callable) -> Callable:
        seconds, depth, clock = self.seconds, self._depth, time.perf_counter

        def wrapper(obj, *args, **kwargs):
            depth[kind] += 1
            started = clock()
            try:
                return method(obj, *args, **kwargs)
            finally:
                depth[kind] -= 1
                if not depth[kind]:
                    seconds[kind] += clock() - started

        return wrapper

    def _drain(self, method: Callable) -> Callable:
        # A simulator's clock only moves inside a drain, so the clock
        # advances of all drains sum to the final clocks of all simulators.
        timed = self._timed("drain", method)

        def wrapper(sim, *args, **kwargs):
            before = sim.now
            try:
                return timed(sim, *args, **kwargs)
            finally:
                self.sim_s += sim.now - before

        return wrapper

    def install(self) -> None:
        from repro.cluster.builder import VirtualHadoopCluster
        from repro.sim.kernel import Simulator
        Simulator.run = self._drain(Simulator.run)
        Simulator.run_until_complete = self._drain(
            Simulator.run_until_complete)
        VirtualHadoopCluster.__init__ = self._timed(
            "build", VirtualHadoopCluster.__init__)


def run_job(job: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one job in this interpreter; see the module docstring."""
    import repro
    from repro.experiments import registry, runner
    registry.get(job["experiment"]).resolve()
    mode = job.get("mode", "run")
    if mode == "setup":
        return {"ready": time.monotonic()}

    from repro.hostmodel.cpu import epoch_stats, reset_epoch_stats
    from repro.sim.kernel import kernel_stats, reset_kernel_stats
    spans = Spans()
    spans.install()
    reset_kernel_stats()
    reset_epoch_stats()
    profiler = cProfile.Profile() if mode == "trace" else None
    ready = time.monotonic()
    started = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    try:
        result = runner.run_experiment(
            job["experiment"], profile=job["profile"], jobs=job.get("jobs", 1),
            seed=job.get("seed", 0), params=job.get("params"))
    finally:
        if profiler is not None:
            profiler.disable()
    wall = time.perf_counter() - started
    out = {
        "ready": ready,
        "wall_s": wall,
        "digest": hashlib.sha256(
            runner.canonical_json(result).encode()).hexdigest(),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_s": spans.sim_s,
        "drain_s": spans.seconds["drain"],
        "build_s": spans.seconds["build"],
        "kernel": kernel_stats(),
        "epochs": epoch_stats(),
    }
    if profiler is not None:
        import pstats
        stats = pstats.Stats(profiler).stats
        self_s, profiled, counts = fold_profile(
            stats, os.path.dirname(repro.__file__))
        out.update(self_s=self_s, profiled_s=profiled, counts=counts)
    return out


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: child.py '<job literal>'", file=sys.stderr)
        return 2
    print(json.dumps(run_job(ast.literal_eval(argv[1]))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
