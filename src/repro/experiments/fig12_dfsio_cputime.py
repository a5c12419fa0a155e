"""Figure 12: TestDFSIO CPU running time, 6 panels.

The same sweep as Figure 11, reporting the benchmark's client-side CPU
running time (ms) instead of throughput — vRead must save CPU in every
panel, not just elapsed time.  Both figures come from the same cells, so
a shared ``cells`` table measures them once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.experiments.common import FigureResult
from repro.experiments.dfsio_sweep import (CellKey, DfsioCell, panels,
                                           points, run_point)

__all__ = ["Fig12Result", "assemble", "points", "run_point"]


@dataclass
class Fig12Result:
    """Structured result of this experiment (render() for the table)."""
    panels: Dict[Tuple[str, str], FigureResult]

    def render(self) -> str:
        """Render the result as paper-style ASCII tables."""
        return "\n\n".join(panel.render() for panel in self.panels.values())

    def cpu_saving_pct(self, scenario: str, phase: str, freq_label: str,
                       vms: int) -> float:
        """vRead CPU saving (%) for one cell."""
        panel = self.panels[(scenario, phase)]
        vanilla = panel.value(f"vanilla-{vms}vms", freq_label)
        vread = panel.value(f"vRead-{vms}vms", freq_label)
        return (vanilla - vread) / vanilla * 100.0


def assemble(results: Dict[CellKey, DfsioCell], file_bytes: int = 32 << 20,
             n_files: int = 2, **_ignored) -> Fig12Result:
    """Build the six CPU-time panels from the measured cells."""
    return Fig12Result(panels(results, "Fig 12", "DFSIO CPU time", "ms",
                              ("read_cpu_ms", "reread_cpu_ms"), file_bytes,
                              n_files))
