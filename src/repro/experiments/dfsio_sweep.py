"""The TestDFSIO parameter sweep shared by Figures 11, 12 and 13.

One *cell* of the sweep = (scenario, CPU frequency, VMs-per-host, client
mode).  Each cell builds a fresh cluster, writes the dataset, then measures
a cold read, a warm re-read, and the client-side CPU time of both — so
Figure 11 (throughput) and Figure 12 (CPU running time) come from the same
runs, like the paper's single benchmark invocation reporting both.

Scenario -> data layout:

* ``colocated`` — all blocks on the datanode VM sharing the client's host;
* ``remote``    — all blocks on the datanode VM on the other host;
* ``hybrid``    — blocks spread round-robin over both datanodes.

Figures 11 and 12 share this module's ``points`` and ``run_point``;
Figure 13 shares ``run_point`` over its own 2.0 GHz / 2-VM points.  The
runner measures each cell once per ``cells`` table it is handed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.cluster import VirtualHadoopCluster
from repro.experiments.common import FigureResult
from repro.hostmodel.frequency import PAPER_FREQUENCIES, frequency_label
from repro.workloads.testdfsio import TestDfsio

SCENARIOS = ("colocated", "remote", "hybrid")
VM_COUNTS = (2, 4)
MODES = ("vanilla", "vRead")

#: The six panels of Figures 11 and 12: (scenario, phase, letter).
PANELS = (
    ("colocated", "read", "(a)"), ("remote", "read", "(b)"),
    ("hybrid", "read", "(c)"), ("colocated", "reread", "(d)"),
    ("remote", "reread", "(e)"), ("hybrid", "reread", "(f)"),
)


@dataclass
class DfsioCell:
    """One cluster's measurements for Figures 11/12."""
    read_mbps: float
    reread_mbps: float
    read_cpu_ms: float
    reread_cpu_ms: float
    write_mbps: float


CellKey = Tuple[str, float, int, str]


def _scenario_layout(scenario: str):
    if scenario == "colocated":
        return {"favored": ["dn1"], "spread": False}
    if scenario == "remote":
        return {"favored": ["dn2"], "spread": False}
    if scenario == "hybrid":
        return {"favored": None, "spread": True}
    raise ValueError(f"unknown scenario {scenario!r}")


def run_cell(scenario: str, frequency_hz: float, total_vms: int, mode: str,
             file_bytes: int, n_files: int,
             request_bytes: int = 1 << 20) -> DfsioCell:
    """Measure one sweep cell on a fresh cluster."""
    layout = _scenario_layout(scenario)
    cluster = VirtualHadoopCluster(
        block_size=64 << 20, frequency_hz=frequency_hz,
        total_vms_per_host=total_vms, vread=(mode == "vRead"))
    dfsio = TestDfsio(cluster.clients.get(), request_bytes=request_bytes)

    def proc():
        write_result = yield from dfsio.write(n_files, file_bytes, **layout)
        cluster.drop_all_caches()
        read_result = yield from dfsio.read(n_files)
        reread_result = yield from dfsio.read(n_files)
        return write_result, read_result, reread_result

    write_result, read_result, reread_result = cluster.run(
        cluster.sim.process(proc()))
    cluster.stop_background()
    return DfsioCell(
        read_mbps=read_result.throughput_mbps,
        reread_mbps=reread_result.throughput_mbps,
        read_cpu_ms=read_result.cpu_milliseconds,
        reread_cpu_ms=reread_result.cpu_milliseconds,
        write_mbps=write_result.throughput_mbps,
    )


def points(frequencies: Sequence[float] = PAPER_FREQUENCIES,
           **_ignored) -> List[CellKey]:
    """The full grid of Figures 11 and 12, in report order."""
    return [(scenario, frequency, vms, mode)
            for scenario in SCENARIOS
            for frequency in frequencies
            for vms in VM_COUNTS
            for mode in MODES]


def run_point(point: CellKey, seed: int, file_bytes: int = 32 << 20,
              n_files: int = 2, **_ignored) -> DfsioCell:
    """Measure one cell.  Cells are seed-free (fully determined by the
    grid); the derived seed is accepted for the runner's interface."""
    return run_cell(*point, file_bytes, n_files)


def panels(results: Dict[CellKey, DfsioCell], figure: str, title: str,
           unit: str, fields: Tuple[str, str], file_bytes: int,
           n_files: int) -> Dict[Tuple[str, str], FigureResult]:
    """The six panels of Figure 11 or 12 from the measured cells.

    ``fields`` names the :class:`DfsioCell` attributes plotted for the
    read and the re-read phase; the frequency axis is the one the cells
    were measured at.
    """
    frequencies = list(dict.fromkeys(point[1] for point in results))
    figures = {}
    for scenario, phase, letter in PANELS:
        field = fields[phase == "reread"]
        figures[(scenario, phase)] = FigureResult(
            figure=f"{figure}{letter}",
            title=f"{title} for {scenario} "
                  f"{'re-read' if phase == 'reread' else 'read'}",
            x_label="CPU frequency",
            x_values=[frequency_label(f) for f in frequencies],
            series={f"{mode}-{vms}vms": [
                        getattr(results[(scenario, f, vms, mode)], field)
                        for f in frequencies]
                    for mode in MODES for vms in VM_COUNTS},
            unit=unit,
            notes=f"{n_files} x {file_bytes >> 20}MB files, 1MB buffer",
        )
    return figures
