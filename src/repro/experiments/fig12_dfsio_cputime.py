"""Figure 12: TestDFSIO CPU running time, 6 panels.

The same sweep as Figure 11, reporting the benchmark's client-side CPU
running time (ms) instead of throughput — vRead must save CPU in every
panel, not just elapsed time.  Both figures come from the same cells, so
a shared ``cells`` table measures them once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.experiments.claims import Claim, above, least_gap
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


CLAIMS = (
    Claim("fig12-vread-saves-cpu", "min vanilla - vRead CPU ms, all cells",
          lambda r: min(least_gap(p.series[f"vanilla-{vms}vms"],
                                  p.series[f"vRead-{vms}vms"])
                        for p in r.panels.values() for vms in (2, 4)),
          above(0)),
    Claim("fig12-faster-clock-less-time", "min vanilla 2-VM CPU ms, slowest "
          "- fastest clock", lambda r: min(
              p.series["vanilla-2vms"][0] - p.series["vanilla-2vms"][-1]
              for p in r.panels.values()), above(0)),
    Claim("fig12-cpu-saving", "co-located read CPU saving @2.0GHz (%)",
          lambda r: r.cpu_saving_pct("colocated", "read", "2.0GHz", 2),
          above(20.0)),
)
