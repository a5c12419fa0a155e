"""Table 2: HBase PerformanceEvaluation — scan / sequential / random read.

HBase-0.94-style store over HDFS, hybrid 4-VM setup @2.0 GHz (the paper's
configuration).  Caches are dropped before every operation so reads hit the
data path, not a warm cache.  Paper: +27.3% / +23.6% / +17.3%.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.cluster import VirtualHadoopCluster
from repro.experiments import paper_data
from repro.experiments.claims import Claim, above, below
from repro.hostmodel.frequency import GHZ_2_0
from repro.metrics.report import Table
from repro.workloads.hbase import HBaseTable

OPERATIONS = ("scan", "sequential-read", "random-read")


@dataclass
class Table2Result:
    #: operation -> (vanilla MB/s, vRead MB/s)
    """Structured result of this experiment (render() for the table)."""
    rows: Dict[str, Tuple[float, float]]

    def improvement_pct(self, operation: str) -> float:
        """vRead-over-vanilla improvement (%) for one cell."""
        vanilla, vread = self.rows[operation]
        return (vread - vanilla) / vanilla * 100.0

    def render(self) -> str:
        """Render the result as paper-style ASCII tables."""
        table = Table(["operation", "Vanilla (MB/s)", "vRead (MB/s)",
                       "% improvement", "paper %"],
                      title="Table 2: Performance improvement for HBase")
        for operation in OPERATIONS:
            vanilla, vread = self.rows[operation]
            paper = paper_data.TABLE2_HBASE[operation][2]
            table.add_row(operation, f"{vanilla:.2f}", f"{vread:.2f}",
                          f"{self.improvement_pct(operation):.1f}",
                          f"{paper:.1f}")
        return table.render()


def _measure(vread: bool, n_rows: int, row_bytes: int,
             rows_per_region: int) -> Dict[str, float]:
    cluster = VirtualHadoopCluster(block_size=64 << 20, vread=vread,
                                   total_vms_per_host=4,
                                   frequency_hz=GHZ_2_0)
    client = cluster.clients.get()
    table = HBaseTable(client, row_bytes=row_bytes,
                       rows_per_region=rows_per_region)

    def load():
        yield from table.load(n_rows, spread=True)

    cluster.run(cluster.sim.process(load()))

    throughput = {}

    def scan():
        return (yield from table.scan())

    def sequential():
        return (yield from table.sequential_read(min(n_rows, n_rows // 2)))

    def random():
        return (yield from table.random_read(min(n_rows, n_rows // 4)))

    for name, op in (("scan", scan), ("sequential-read", sequential),
                     ("random-read", random)):
        cluster.drop_all_caches()
        result = cluster.run(cluster.sim.process(op()))
        throughput[name] = result.throughput_mbps
    table.close()
    cluster.stop_background()
    return throughput


def run(n_rows: int = 32_768, row_bytes: int = 1024,
        rows_per_region: int = 8_192) -> Table2Result:
    """Run the experiment; see the module docstring for the setup."""
    vanilla = _measure(False, n_rows, row_bytes, rows_per_region)
    vread = _measure(True, n_rows, row_bytes, rows_per_region)
    return Table2Result({op: (vanilla[op], vread[op]) for op in OPERATIONS})


_gain = Table2Result.improvement_pct
_PAPER_GAINS = [paper_data.TABLE2_HBASE[op][2] for op in OPERATIONS]

CLAIMS = (
    Claim("table2-every-op-gains", "min vRead gain of any operation (%)",
          lambda r: min(_gain(r, op) for op in OPERATIONS), above(5.0),
          paper=min(_PAPER_GAINS)),
    Claim("table2-gains-plausible", "max vRead gain of any operation (%)",
          lambda r: max(_gain(r, op) for op in OPERATIONS), below(60.0),
          paper=max(_PAPER_GAINS)),
    # The paper's ordering: random reads, most diluted by per-get
    # region-server work, gain least.
    Claim("table2-random-below-scan", "scan - random-read gain (pts)",
          lambda r: _gain(r, "scan") - _gain(r, "random-read"), above(0)),
    Claim("table2-random-below-sequential", "sequential - random-read gain "
          "(pts)", lambda r: _gain(r, "sequential-read")
          - _gain(r, "random-read"), above(0)),
    Claim("table2-scan-moves-bulk", "vanilla scan / sequential-read MB/s",
          lambda r: r.rows["scan"][0] / r.rows["sequential-read"][0],
          above(5.0)),
)
