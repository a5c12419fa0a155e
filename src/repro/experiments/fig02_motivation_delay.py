"""Figure 2: HDFS-in-a-VM read delay vs local-filesystem read delay.

A Java-app-style reader in one VM reads a file (a) from its own local
filesystem and (b) from HDFS served by a co-located datanode VM, with
request sizes 64KB / 1MB / 4MB, both cold ("read without cache") and warm
("read with cache").  The paper's point: the inter-VM path is much slower
in all cases because of device-virtualization copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.cluster import VirtualHadoopCluster
from repro.experiments.common import FigureResult, load_dataset
from repro.storage.content import PatternSource
from repro.workloads.filereader import FileReadBenchmark

REQUEST_SIZES = (64 * 1024, 1 << 20, 4 << 20)
SIZE_LABELS = {64 * 1024: "64KB", 1 << 20: "1MB", 4 << 20: "4MB"}


@dataclass
class Fig02Result:
    """Structured result of this experiment (render() for the table)."""
    no_cache: FigureResult
    cache: FigureResult

    def render(self) -> str:
        """Render the result as paper-style ASCII tables."""
        return self.no_cache.render() + "\n\n" + self.cache.render()


def _measure(file_bytes: int, request_bytes: int, cached: bool):
    """Returns the (inter-VM, local) mean per-request delays in seconds."""
    cluster = VirtualHadoopCluster(block_size=max(file_bytes, 1 << 20))
    payload = PatternSource(file_bytes, seed=2)
    load_dataset(cluster, "/fig2/data", payload, favored=["dn1"])
    cluster.client_vm.guest_fs.mkdir("/data", parents=True)
    cluster.client_vm.guest_fs.create("/data/file", payload)

    def run_local():
        bench = FileReadBenchmark(request_bytes)
        return (yield from bench.read_local(cluster.client_vm, "/data/file"))

    def run_hdfs():
        bench = FileReadBenchmark(request_bytes)
        return (yield from bench.read_hdfs(
            cluster.clients.get(mode="vanilla"), "/fig2/data"))

    results = []
    for runner in (run_hdfs, run_local):
        if cached:
            cluster.run(cluster.sim.process(runner()))   # warm-up pass
        else:
            cluster.drop_all_caches()
        results.append(cluster.run(cluster.sim.process(runner())))
    inter_vm, local = results
    return inter_vm, local


def run(file_bytes: int = 16 << 20,
        request_sizes: Sequence[int] = REQUEST_SIZES) -> Fig02Result:
    """Run the Figure 2 experiment; delays are in milliseconds."""
    figures = {}
    for cached, tag, paper_panel in ((False, "no_cache", "Fig 2(a)"),
                                     (True, "cache", "Fig 2(b)")):
        inter_vm, local = [], []
        for request_bytes in request_sizes:
            iv, lc = _measure(file_bytes, request_bytes, cached)
            inter_vm.append(iv * 1e3)
            local.append(lc * 1e3)
        figures[tag] = FigureResult(
            figure=paper_panel,
            title=("Virtual HDFS data access delay "
                   + ("with cache" if cached else "without cache")),
            x_label="size of request",
            x_values=[SIZE_LABELS.get(s, str(s)) for s in request_sizes],
            series={"inter-VM": inter_vm, "local": local},
            unit="ms",
            notes=f"file={file_bytes >> 20}MB, quad-core @2.0GHz",
        )
    return Fig02Result(figures["no_cache"], figures["cache"])
