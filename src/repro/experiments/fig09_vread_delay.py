"""Figure 9: data access delay for virtual HDFS, vanilla vs vRead.

The Figure 2 experiment repeated with the inter-VM reads replaced by vRead
reads, in the 2-VM and 4-VM (2 lookbusy hogs) scenarios, cold and warm.
The paper reports delay reductions of up to 40% (2 VMs) and up to 50%
(4 VMs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from repro.cluster import VirtualHadoopCluster
from repro.experiments import paper_data
from repro.experiments.claims import Claim, above, least_gap
from repro.experiments.common import FigureResult, load_dataset
from repro.storage.content import PatternSource
from repro.workloads.filereader import FileReadBenchmark

REQUEST_SIZES = (64 * 1024, 1 << 20, 4 << 20)
SIZE_LABELS = {64 * 1024: "64KB", 1 << 20: "1MB", 4 << 20: "4MB"}


@dataclass
class Fig09Result:
    """Structured result of this experiment (render() for the table)."""
    no_cache: FigureResult
    cache: FigureResult

    def render(self) -> str:
        """Render the result as paper-style ASCII tables."""
        return self.no_cache.render() + "\n\n" + self.cache.render()

    def reduction_pct(self, vms: str, cached: bool, size_label: str) -> float:
        """vRead delay reduction (%) for one cell."""
        figure = self.cache if cached else self.no_cache
        vanilla = figure.value(f"vanilla-{vms}", size_label)
        vread = figure.value(f"vRead-{vms}", size_label)
        return (vanilla - vread) / vanilla * 100.0


def _measure(vread: bool, total_vms: int, request_bytes: int,
             cached: bool, file_bytes: int):
    """Returns the measured pass's mean per-request delay in ms."""
    cluster = VirtualHadoopCluster(block_size=max(file_bytes, 1 << 20),
                                   vread=vread,
                                   total_vms_per_host=total_vms)
    load_dataset(cluster, "/fig9/data", PatternSource(file_bytes, seed=9),
                 favored=["dn1"])
    client = cluster.clients.get()

    def reader():
        bench = FileReadBenchmark(request_bytes)
        return (yield from bench.read_hdfs(client, "/fig9/data"))

    if cached:
        cluster.run(cluster.sim.process(reader()))  # warm-up
    else:
        cluster.drop_all_caches()
    delay = cluster.run(cluster.sim.process(reader()))
    cluster.stop_background()
    return delay * 1e3


def run(file_bytes: int = 16 << 20,
        request_sizes: Sequence[int] = REQUEST_SIZES) -> Fig09Result:
    """Run the Figure 9 experiment; delays in milliseconds."""
    figures: Dict[str, FigureResult] = {}
    for cached, tag, panel in ((False, "no_cache", "Fig 9(a)"),
                               (True, "cache", "Fig 9(b)")):
        series = {"vanilla-2vms": [], "vRead-2vms": [],
                  "vanilla-4vms": [], "vRead-4vms": []}
        for request_bytes in request_sizes:
            series["vanilla-2vms"].append(
                _measure(False, 2, request_bytes, cached, file_bytes))
            series["vRead-2vms"].append(
                _measure(True, 2, request_bytes, cached, file_bytes))
            series["vanilla-4vms"].append(
                _measure(False, 4, request_bytes, cached, file_bytes))
            series["vRead-4vms"].append(
                _measure(True, 4, request_bytes, cached, file_bytes))
        figures[tag] = FigureResult(
            figure=panel,
            title=("Data access delay "
                   + ("with cache" if cached else "without cache")),
            x_label="size of request",
            x_values=[SIZE_LABELS.get(s, str(s)) for s in request_sizes],
            series=series,
            unit="ms",
            notes=f"file={file_bytes >> 20}MB, co-located read @2.0GHz",
        )
    return Fig09Result(figures["no_cache"], figures["cache"])


CLAIMS = (
    Claim("fig09-vread-faster", "min vanilla - vRead delay (ms)",
          lambda r: min(least_gap(f.series[f"vanilla-{vms}"],
                                  f.series[f"vRead-{vms}"])
                        for f in (r.no_cache, r.cache)
                        for vms in ("2vms", "4vms")), above(0)),
    Claim("fig09-contention-slows-vanilla", "min vanilla 4-VM - 2-VM delay "
          "(ms)", lambda r: min(least_gap(f.series["vanilla-4vms"],
                                          f.series["vanilla-2vms"])
                                for f in (r.no_cache, r.cache)), above(0)),
    Claim("fig09-vanilla-contention-gap", "cached 1MB vanilla delay, 4 / 2 "
          "VMs", lambda r: (r.cache.value("vanilla-4vms", "1MB")
                            / r.cache.value("vanilla-2vms", "1MB")),
          above(1.05)),
    Claim("fig09-reduction-2vms", "cached 1MB delay reduction, 2 VMs (%)",
          lambda r: r.reduction_pct("2vms", True, "1MB"), above(20.0),
          paper=paper_data.FIG9_DELAY_REDUCTION_2VMS_PCT),
    Claim("fig09-reduction-4vms", "cached 1MB delay reduction, 4 VMs (%)",
          lambda r: r.reduction_pct("4vms", True, "1MB"), above(25.0),
          paper=paper_data.FIG9_DELAY_REDUCTION_4VMS_PCT),
)
