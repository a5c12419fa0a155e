"""Figure 11: TestDFSIO read/re-read throughput, 6 panels.

Panels (a)-(c): cold read throughput for co-located / remote / hybrid;
panels (d)-(f): warm re-read.  Each panel sweeps CPU frequency
(1.6/2.0/3.2 GHz) with four bars: vanilla/vRead x 2 VMs/4 VMs.  The grid
and the cell measurement are :mod:`~repro.experiments.dfsio_sweep`'s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.experiments import paper_data
from repro.experiments.claims import Claim, above, between, least_gap
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


def _gain(phase: str, freq: str):
    """Measure: the co-located 2-VM improvement of one phase (%)."""
    return lambda r: r.improvement_pct("colocated", phase, freq, 2)


def _min_vanilla_drop(r: Fig11Result) -> float:
    panel = r.panels[("colocated", "read")]
    return min((1 - panel.value("vanilla-4vms", freq)
                / panel.value("vanilla-2vms", freq)) * 100.0
               for freq in panel.x_values)


CLAIMS = (
    Claim("fig11-vread-wins", "min vRead - vanilla MBps over all cells",
          lambda r: min(least_gap(p.series[f"vRead-{vms}vms"],
                                  p.series[f"vanilla-{vms}vms"])
                        for p in r.panels.values() for vms in (2, 4)),
          above(0)),
    Claim("fig11-gain-grows-as-cpu-slows", "read gain @1.6 - @3.2GHz (pts)",
          lambda r: _gain("read", "1.6GHz")(r) - _gain("read", "3.2GHz")(r),
          above(0)),
    Claim("fig11-gain-3.2ghz", "co-located read gain @3.2GHz (%)",
          _gain("read", "3.2GHz"), between(10.0, 45.0),
          paper=paper_data.FIG11_COLOCATED_READ_IMPROVEMENT_3_2GHZ_PCT),
    Claim("fig11-gain-1.6ghz", "co-located read gain @1.6GHz (%)",
          _gain("read", "1.6GHz"), between(25.0, 60.0),
          paper=paper_data.FIG11_COLOCATED_READ_IMPROVEMENT_1_6GHZ_PCT),
    Claim("fig11-vanilla-4vms-drop", "min vanilla read drop, 4 vs 2 VMs (%)",
          _min_vanilla_drop, above(2.0),
          paper=paper_data.FIG11_VANILLA_4VMS_DROP_PCT),
    Claim("fig11-reread-dwarfs-read", "re-read - 1.5 x read gain @2.0GHz "
          "(pts)", lambda r: (_gain("reread", "2.0GHz")(r)
                              - _gain("read", "2.0GHz")(r) * 1.5), above(0)),
    Claim("fig11-reread-gain", "co-located re-read gain @2.0GHz (%)",
          _gain("reread", "2.0GHz"), above(50.0),
          paper=paper_data.MAX_REREAD_IMPROVEMENT_PCT),
)
