"""Ablation: host page-cache size vs vRead re-read performance.

vRead's re-read advantage rides entirely on the *host* page cache (the
daemon reads through the mount).  This sweep bounds the host cache and
shows the cliff: once the working set outgrows the cache, re-reads decay
to cold-read speed — quantifying how much of vRead's 150%-class re-read
win is cache-dependent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from repro.cluster import VirtualHadoopCluster
from repro.experiments.claims import Claim, above, equal
from repro.experiments.common import load_dataset
from repro.metrics.report import Table
from repro.storage.content import PatternSource


@dataclass
class CacheSizeResult:
    #: host cache bytes -> re-read MBps (vRead)
    """Structured result of this experiment (render() for the table)."""
    cells: Dict[float, float]
    file_bytes: int

    def render(self) -> str:
        """Render the result as paper-style ASCII tables."""
        table = Table(["host page cache", "vRead re-read MB/s"],
                      title=f"Ablation: host cache size "
                            f"(working set {self.file_bytes >> 20}MB)")
        for cache_bytes, mbps in self.cells.items():
            label = ("unbounded" if cache_bytes == float("inf")
                     else f"{int(cache_bytes) >> 20}MB")
            table.add_row(label, f"{mbps:.0f}")
        return table.render()


def _measure(cache_bytes: float, file_bytes: int) -> float:
    cluster = VirtualHadoopCluster(block_size=max(file_bytes, 1 << 20),
                                   vread=True)
    for host in cluster.hosts:
        # Rebind the host cache with a bound (same LRU semantics).
        from repro.storage.pagecache import PageCache
        host.page_cache = PageCache(cache_bytes,
                                    name=f"{host.name}.pagecache")
    load_dataset(cluster, "/abl/data", PatternSource(file_bytes, seed=65),
                 favored=["dn1"])
    client = cluster.clients.get()
    cluster.drop_all_caches()

    def read():
        start = cluster.sim.now
        yield from client.read_file("/abl/data", 1 << 20)
        return file_bytes / 1e6 / (cluster.sim.now - start)

    cluster.run(cluster.sim.process(read()))           # cold pass
    cluster.client_vm.drop_guest_cache()               # isolate host cache
    return cluster.run(cluster.sim.process(read()))    # measured re-read


def run(file_bytes: int = 32 << 20,
        cache_sizes: Sequence[float] = (4 << 20, 16 << 20, 64 << 20,
                                        float("inf"))) -> CacheSizeResult:
    """Run the experiment; see the module docstring for the setup."""
    cells = {size: _measure(size, file_bytes) for size in cache_sizes}
    return CacheSizeResult(cells, file_bytes)


CLAIMS = (
    Claim("cache-size-cliff", "re-read MB/s, 64MB / 4MB host cache",
          lambda r: r.cells[64 << 20] / r.cells[4 << 20], above(2.0)),
    Claim("cache-size-flat-beyond-working-set", "re-read MB/s, unbounded - "
          "64MB host cache",
          lambda r: r.cells[float("inf")] - r.cells[64 << 20], equal(0)),
)
