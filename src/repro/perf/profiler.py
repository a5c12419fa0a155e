"""Profile a registry experiment: hot functions + kernel counters.

The harness answers the two questions that matter for simulator speed:

* **where does host CPU go?** — cProfile's top functions by internal time;
* **how hard is the kernel working?** — events processed per host-second,
  the cancelled-timer ratio (dead heap entries discarded vs. events
  processed: high values mean deadline timers are being minted and
  abandoned faster than compaction can absorb), and the heap high-water
  mark (peak outstanding events, a memory and ``heappush`` cost driver).

Everything runs in-process and serially (``jobs`` is forced to 1): a
worker-pool fan-out would escape both cProfile and the kernel counters.
Use ``benchmarks/e2e/bench.py`` for subprocess-isolated wall-clock
comparisons between commits; use this harness to understand *why* a
number moved.
"""

from __future__ import annotations

import cProfile
import io
import json
import pstats
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.sim.kernel import kernel_stats, reset_kernel_stats


@dataclass
class ProfileReport:
    """Everything one profiling run measured; renderable and JSON-able."""

    experiment: str
    profile: str                       # size profile: quick/default/paper
    wall_seconds: float
    kernel: Dict[str, int]             # snapshot of kernel_stats()
    top_functions: List[Tuple[str, int, float, float]] = field(
        default_factory=list)          # (location, calls, tottime, cumtime)
    peak_traced_mb: Optional[float] = None    # tracemalloc high-water
    trace_top: List[Tuple[str, float]] = field(default_factory=list)

    @property
    def events_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.kernel.get("events_processed", 0) / self.wall_seconds

    @property
    def cancelled_ratio(self) -> float:
        processed = self.kernel.get("events_processed", 0)
        if processed == 0:
            return 0.0
        return self.kernel.get("cancelled_discarded", 0) / processed

    def to_json(self) -> Dict[str, Any]:
        return {
            "experiment": self.experiment,
            "profile": self.profile,
            "wall_seconds": round(self.wall_seconds, 6),
            "events_per_second": round(self.events_per_second, 1),
            "cancelled_ratio": round(self.cancelled_ratio, 6),
            "kernel": dict(self.kernel),
            "top_functions": [
                {"where": where, "calls": calls,
                 "tottime": round(tottime, 6), "cumtime": round(cumtime, 6)}
                for where, calls, tottime, cumtime in self.top_functions],
            "peak_traced_mb": self.peak_traced_mb,
            "tracemalloc_top": [
                {"where": where, "mb": round(mb, 3)}
                for where, mb in self.trace_top],
        }

    def render(self) -> str:
        k = self.kernel
        lines = [
            f"profile of {self.experiment!r} ({self.profile} profile)",
            "",
            f"  wall time          {self.wall_seconds * 1e3:10.1f} ms",
            f"  events processed   {k.get('events_processed', 0):10d}"
            f"   ({self.events_per_second:,.0f}/s)",
            f"  events scheduled   {k.get('events_scheduled', 0):10d}",
            f"  cancelled dropped  {k.get('cancelled_discarded', 0):10d}"
            f"   (ratio {self.cancelled_ratio:.3f})",
            f"  heap high-water    {k.get('heap_high_water', 0):10d}"
            f"   (compactions {k.get('compactions', 0)})",
            f"  simulators         {k.get('simulators', 0):10d}",
        ]
        if self.peak_traced_mb is not None:
            lines.append(f"  peak traced heap   {self.peak_traced_mb:10.1f} MB")
        lines += ["", "  hottest functions (by internal time):"]
        width = max((len(where) for where, *_ in self.top_functions),
                    default=10)
        lines.append(f"    {'function'.ljust(width)}  {'calls':>9}  "
                     f"{'tottime':>8}  {'cumtime':>8}")
        for where, calls, tottime, cumtime in self.top_functions:
            lines.append(f"    {where.ljust(width)}  {calls:>9d}  "
                         f"{tottime:>8.3f}  {cumtime:>8.3f}")
        if self.trace_top:
            lines += ["", "  largest allocation sites (tracemalloc):"]
            for where, mb in self.trace_top:
                lines.append(f"    {mb:8.2f} MB  {where}")
        return "\n".join(lines)


def _shorten(path: str) -> str:
    marker = "repro/"
    index = path.rfind(marker)
    return path[index:] if index >= 0 else path


def profile_experiment(experiment: str, profile: str = "quick",
                       seed: int = 0, top: int = 15,
                       memory: bool = False) -> ProfileReport:
    """Run ``experiment`` under cProfile and return a :class:`ProfileReport`.

    ``memory=True`` additionally enables tracemalloc (slower: every
    allocation is traced) and reports the peak traced heap plus the
    largest allocation sites.
    """
    from repro.experiments import runner

    tracemalloc = None
    if memory:
        import tracemalloc as tracemalloc_module
        tracemalloc = tracemalloc_module
        tracemalloc.start()
    reset_kernel_stats()
    profiler = cProfile.Profile()
    started = time.perf_counter()  # simlint: disable=no-wallclock
    profiler.enable()
    try:
        runner.run_experiment(experiment, profile=profile, jobs=1, seed=seed)
    finally:
        profiler.disable()
    wall = time.perf_counter() - started  # simlint: disable=no-wallclock
    kernel = kernel_stats()

    stats = pstats.Stats(profiler, stream=io.StringIO())
    stats.sort_stats("tottime")
    top_functions: List[Tuple[str, int, float, float]] = []
    for func in stats.fcn_list[:top]:  # (file, line, name)
        cc, ncalls, tottime, cumtime, _ = stats.stats[func]
        filename, lineno, name = func
        if filename == "~":
            where = name  # builtins render as '~:0(<method ...>)'
        else:
            where = f"{_shorten(filename)}:{lineno}({name})"
        top_functions.append((where, ncalls, tottime, cumtime))

    peak_mb = None
    trace_top: List[Tuple[str, float]] = []
    if tracemalloc is not None:
        current, peak = tracemalloc.get_traced_memory()
        peak_mb = peak / (1 << 20)
        snapshot = tracemalloc.take_snapshot()
        tracemalloc.stop()
        for stat in snapshot.statistics("lineno")[:10]:
            frame = stat.traceback[0]
            trace_top.append((f"{_shorten(frame.filename)}:{frame.lineno}",
                              stat.size / (1 << 20)))
    return ProfileReport(experiment=experiment, profile=profile,
                         wall_seconds=wall, kernel=kernel,
                         top_functions=top_functions,
                         peak_traced_mb=peak_mb, trace_top=trace_top)


def write_json(report: ProfileReport, path: str) -> None:
    """Write the report's JSON form to ``path``."""
    with open(path, "w") as handle:
        json.dump(report.to_json(), handle, indent=2, sort_keys=True)
        handle.write("\n")
