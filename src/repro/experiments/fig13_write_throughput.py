"""Figure 13: HDFS write throughput — vRead_update overhead is negligible.

TestDFSIO-write in the three scenarios at 2.0 GHz, vanilla vs vRead.  The
only vRead-side work on the write path is the mount-point dentry/inode
refresh per committed block, so throughput must be statistically unchanged.
The cells are Figure 11's 2.0 GHz / 2-VM cells, measured by the same
``run_point``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.experiments.claims import Claim, above, below
from repro.experiments.common import FigureResult
from repro.experiments.dfsio_sweep import (MODES, SCENARIOS, CellKey,
                                           DfsioCell, run_point)
from repro.hostmodel.frequency import GHZ_2_0

__all__ = ["assemble", "points", "run_point"]


def points(scenarios: Sequence[str] = SCENARIOS,
           frequency_hz: float = GHZ_2_0, **_ignored) -> List[CellKey]:
    """Every scenario at one frequency with 2 VMs per host."""
    return [(scenario, frequency_hz, 2, mode)
            for scenario in scenarios for mode in MODES]


def assemble(results: Dict[CellKey, DfsioCell], file_bytes: int = 32 << 20,
             n_files: int = 2, **_ignored) -> FigureResult:
    """Build the write-throughput figure from the measured cells."""
    scenarios = list(dict.fromkeys(point[0] for point in results))
    labels = {"colocated": "co-located", "remote": "remote",
              "hybrid": "hybrid"}
    return FigureResult(
        figure="Fig 13",
        title="HDFS write throughput (vRead_update overhead)",
        x_label="scenario",
        x_values=[labels.get(s, s) for s in scenarios],
        series={mode: [cell.write_mbps for point, cell in results.items()
                       if point[3] == mode]
                for mode in MODES},
        unit="MBps",
        notes=f"{n_files} x {file_bytes >> 20}MB files @2.0GHz",
    )


CLAIMS = (
    Claim("fig13-negligible-overhead", "max |vRead write overhead| (%)",
          lambda r: max(abs((vanilla - vread) / vanilla * 100.0)
                        for vanilla, vread in zip(r.series["vanilla"],
                                                  r.series["vRead"])),
          below(5.0)),
    Claim("fig13-writes-progress", "min write MBps of any bar",
          lambda r: min(min(values) for values in r.series.values()),
          above(0)),
)
