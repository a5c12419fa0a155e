"""TestDFSIO: the HDFS throughput benchmark (paper Figs 11-13).

A Map/Reduce workload (via :class:`~repro.workloads.mapreduce.MiniMapReduce`)
where each map task reads or writes one file.  Reports the same numbers the
real benchmark prints: aggregate throughput (MB/s) and the cumulative CPU
running time of the benchmark's tasks (Fig 12's metric).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.storage.content import PatternSource
from repro.workloads.mapreduce import MapSpec, MiniMapReduce

DATA_DIR = "/benchmarks/TestDFSIO/io_data"


@dataclass
class DfsioResult:
    """What TestDFSIO prints at the end of a run."""
    operation: str            # 'write' | 'read'
    files: int
    total_bytes: int
    elapsed_seconds: float
    cpu_seconds: float        # client-side CPU consumed by the benchmark

    @property
    def throughput_mbps(self) -> float:
        """Aggregate MB/s (decimal MB, like the benchmark reports)."""
        return self.total_bytes / 1e6 / self.elapsed_seconds

    @property
    def cpu_milliseconds(self) -> float:
        return self.cpu_seconds * 1e3


class TestDfsio:
    """Drives write/read phases against one HDFS client."""

    #: Not a pytest test class, despite the (benchmark-faithful) name.
    __test__ = False

    def __init__(self, client, request_bytes: int = 1 << 20,
                 map_slots: int = 1, seed: int = 0):
        self.client = client
        self.request_bytes = request_bytes
        self.map_slots = map_slots
        self.seed = seed

    # ------------------------------------------------------------------ paths
    def file_path(self, index: int) -> str:
        return f"{DATA_DIR}/test_io_{index}"

    # ------------------------------------------------------------------ write
    def write(self, n_files: int, file_bytes: int, favored=None,
              spread: bool = False):
        """Generator: the -write phase.  Returns a DfsioResult."""
        sim = self.client.vm.sim
        mark = self._cpu_mark()
        start = sim.now
        for index in range(n_files):
            payload = PatternSource(file_bytes, seed=self.seed + index)
            yield from self.client.write_file(
                self.file_path(index), payload, favored=favored,
                spread=spread)
        elapsed = sim.now - start
        return DfsioResult("write", n_files, n_files * file_bytes, elapsed,
                           self._cpu_since(mark))

    # ------------------------------------------------------------------- read
    def read(self, n_files: int):
        """Generator: the -read phase over files written by :meth:`write`."""
        sim = self.client.vm.sim
        engine = MiniMapReduce(self.client, map_slots=self.map_slots)
        specs = [MapSpec(self.file_path(i), self.request_bytes)
                 for i in range(n_files)]
        mark = self._cpu_mark()
        start = sim.now
        results = yield from engine.run(specs)
        elapsed = sim.now - start
        total = sum(r.bytes_read for r in results)
        return DfsioResult("read", n_files, total, elapsed,
                           self._cpu_since(mark))

    # ------------------------------------------------------------------- CPU
    def _cpu_mark(self):
        return self.client.vm.host.accounting.snapshot()

    def _cpu_since(self, mark) -> float:
        window = self.client.vm.host.accounting.since(mark)
        by_thread = window.by_thread()
        return by_thread.get(self.client.vm.vcpu.name, 0.0)
