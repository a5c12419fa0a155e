"""Table 3: Hive range query and Sqoop export, vanilla vs vRead.

* Hive: ``select * from test where id >= x and id <= y`` over a user table
  on HDFS (hybrid 4-VM setup @2.0 GHz).  Paper: 21.3% time reduction.
* Sqoop: export the same table into MySQL on a third physical machine.
  The insert/commit side bounds the benefit.  Paper: 11.3% reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.cluster import VirtualHadoopCluster
from repro.experiments import paper_data
from repro.experiments.claims import Claim, above, between
from repro.hostmodel.frequency import GHZ_2_0
from repro.metrics.report import Table
from repro.virt.vm import VirtualMachine
from repro.workloads.hive import HiveTable
from repro.workloads.sqoop import MySqlServer, SqoopExport


@dataclass
class Table3Result:
    #: (vanilla seconds, vRead seconds)
    """Structured result of this experiment (render() for the table)."""
    hive_select: Tuple[float, float]
    sqoop_export: Tuple[float, float]

    @staticmethod
    def _reduction(pair: Tuple[float, float]) -> float:
        vanilla, vread = pair
        return (vanilla - vread) / vanilla * 100.0

    @property
    def hive_reduction_pct(self) -> float:
        """Hive query-time reduction (%)."""
        return self._reduction(self.hive_select)

    @property
    def sqoop_reduction_pct(self) -> float:
        """Sqoop export-time reduction (%)."""
        return self._reduction(self.sqoop_export)

    def render(self) -> str:
        """Render the result as paper-style ASCII tables."""
        table = Table(["workload", "Vanilla (s)", "vRead (s)",
                       "% reduction", "paper %"],
                      title="Table 3: Hive select and Sqoop export")
        table.add_row("Select Sql for Hive", f"{self.hive_select[0]:.3f}",
                      f"{self.hive_select[1]:.3f}",
                      f"{self.hive_reduction_pct:.1f}",
                      f"{paper_data.TABLE3_HIVE_SELECT[2]:.1f}")
        table.add_row("Sqoop Export", f"{self.sqoop_export[0]:.3f}",
                      f"{self.sqoop_export[1]:.3f}",
                      f"{self.sqoop_reduction_pct:.1f}",
                      f"{paper_data.TABLE3_SQOOP_EXPORT[2]:.1f}")
        return table.render()


def _hive_time(vread: bool, n_rows: int, row_bytes: int,
               rows_per_file: int) -> float:
    cluster = VirtualHadoopCluster(block_size=64 << 20, vread=vread,
                                   total_vms_per_host=4,
                                   frequency_hz=GHZ_2_0)
    client = cluster.clients.get()
    table = HiveTable(client, row_bytes=row_bytes, rows_per_file=rows_per_file)

    def load():
        yield from table.load(n_rows, spread=True)

    cluster.run(cluster.sim.process(load()))
    cluster.drop_all_caches()

    def query():
        result = yield from table.select_where_id_between(
            n_rows // 4, n_rows // 2)
        return result

    result = cluster.run(cluster.sim.process(query()))
    cluster.stop_background()
    assert result.scanned_rows == n_rows
    return result.elapsed_seconds


def _sqoop_time(vread: bool, n_rows: int, row_bytes: int,
                rows_per_file: int) -> float:
    cluster = VirtualHadoopCluster(n_hosts=3, n_datanodes=2,
                                   block_size=64 << 20, vread=vread,
                                   total_vms_per_host=4,
                                   frequency_hz=GHZ_2_0)
    mysql_vm = VirtualMachine(cluster.hosts[2], "mysql")
    mysql = MySqlServer(mysql_vm, cluster.network)
    client = cluster.clients.get()
    table = HiveTable(client, row_bytes=row_bytes, rows_per_file=rows_per_file)
    export = SqoopExport(client, mysql, cluster.network)

    def load():
        yield from table.load(n_rows, spread=True)

    cluster.run(cluster.sim.process(load()))
    cluster.drop_all_caches()

    def run_export():
        return (yield from export.export_table(table))

    result = cluster.run(cluster.sim.process(run_export()))
    cluster.stop_background()
    assert result.rows == n_rows
    return result.elapsed_seconds


def run(n_rows: int = 262_144, row_bytes: int = 128,
        rows_per_file: int = 131_072) -> Table3Result:
    """Run the experiment; see the module docstring for the setup."""
    hive = (_hive_time(False, n_rows, row_bytes, rows_per_file),
            _hive_time(True, n_rows, row_bytes, rows_per_file))
    sqoop = (_sqoop_time(False, n_rows, row_bytes, rows_per_file),
             _sqoop_time(True, n_rows, row_bytes, rows_per_file))
    return Table3Result(hive, sqoop)


CLAIMS = (
    Claim("table3-hive-reduction", "Hive query-time reduction (%)",
          lambda r: r.hive_reduction_pct, between(8.0, 35.0),
          paper=paper_data.TABLE3_HIVE_SELECT[2]),
    Claim("table3-sqoop-reduction", "Sqoop export-time reduction (%)",
          lambda r: r.sqoop_reduction_pct, between(3.0, 20.0),
          paper=paper_data.TABLE3_SQOOP_EXPORT[2]),
    # The MySQL insert side, which vRead cannot speed up, caps Sqoop.
    Claim("table3-sqoop-below-hive", "Hive - Sqoop reduction (pts)",
          lambda r: r.hive_reduction_pct - r.sqoop_reduction_pct, above(0)),
    Claim("table3-hive-faster", "vanilla - vRead Hive time (s)",
          lambda r: r.hive_select[0] - r.hive_select[1], above(0)),
    Claim("table3-sqoop-faster", "vanilla - vRead Sqoop time (s)",
          lambda r: r.sqoop_export[0] - r.sqoop_export[1], above(0)),
)
