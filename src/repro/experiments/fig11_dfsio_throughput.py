"""Figure 11: TestDFSIO read/re-read throughput, 6 panels.

Panels (a)-(c): cold read throughput for co-located / remote / hybrid;
panels (d)-(f): warm re-read.  Each panel sweeps CPU frequency
(1.6/2.0/3.2 GHz) with four bars: vanilla/vRead x 2 VMs/4 VMs.  The grid
and the cell measurement are :mod:`~repro.experiments.dfsio_sweep`'s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.experiments.common import FigureResult
from repro.experiments.dfsio_sweep import (CellKey, DfsioCell, panels,
                                           points, run_point)

__all__ = ["Fig11Result", "assemble", "points", "run_point"]


@dataclass
class Fig11Result:
    """Structured result of this experiment (render() for the table)."""
    panels: Dict[Tuple[str, str], FigureResult]

    def render(self) -> str:
        """Render the result as paper-style ASCII tables."""
        return "\n\n".join(panel.render() for panel in self.panels.values())

    def improvement_pct(self, scenario: str, phase: str, freq_label: str,
                        vms: int) -> float:
        """vRead-over-vanilla improvement (%) for one cell."""
        panel = self.panels[(scenario, phase)]
        vanilla = panel.value(f"vanilla-{vms}vms", freq_label)
        vread = panel.value(f"vRead-{vms}vms", freq_label)
        return (vread - vanilla) / vanilla * 100.0


def assemble(results: Dict[CellKey, DfsioCell], file_bytes: int = 32 << 20,
             n_files: int = 2, **_ignored) -> Fig11Result:
    """Build the six throughput panels from the measured cells."""
    return Fig11Result(panels(results, "Fig 11", "DFSIO throughput", "MBps",
                              ("read_mbps", "reread_mbps"), file_bytes,
                              n_files))
