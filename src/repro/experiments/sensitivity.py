"""Sensitivity analysis: how robust are the headline results to calibration?

Every simulation-based reproduction stands on its cost constants.  This
experiment perturbs the most influential ones (halving and doubling each in
isolation) and re-measures the co-located read/re-read improvement.  The
claim being defended: **vRead's win is structural** — it comes from removing
copies and thread handoffs, not from any single lucky constant — so the
improvement stays positive under every perturbation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.cluster import VirtualHadoopCluster
from repro.experiments.claims import Claim, above
from repro.experiments.common import load_dataset
from repro.hostmodel.costs import CostModel
from repro.metrics.report import Table
from repro.storage.content import PatternSource

#: The constants whose calibration most affects the headline shapes.
DEFAULT_KNOBS = (
    "hdfs_checksum_cycles_per_byte",
    "vhost_copy_cycles_per_byte",
    "virtio_blk_copy_cycles_per_byte",
    "vread_copy_cycles_per_byte",
    "vread_guest_copy_cycles_per_byte",
    "wakeup_stacking_delay_seconds",
)

SCALES = (0.5, 1.0, 2.0)


@dataclass
class SensitivityResult:
    #: (knob, scale) -> (cold improvement %, warm improvement %)
    """Structured result of this experiment (render() for the table)."""
    cells: Dict[Tuple[str, float], Tuple[float, float]]

    def render(self) -> str:
        """Render the result as paper-style ASCII tables."""
        table = Table(["constant", "scale", "cold read Δ%", "re-read Δ%"],
                      title="Sensitivity: co-located vRead improvement "
                            "under cost-model perturbations")
        for (knob, scale), (cold, warm) in self.cells.items():
            table.add_row(knob, f"x{scale}", f"{cold:+.1f}", f"{warm:+.1f}")
        return table.render()


def _improvements(costs: CostModel, file_bytes: int) -> Tuple[float, float]:
    """(cold %, warm %) improvement of vRead over vanilla."""
    throughput = {}
    for mode in ("vanilla", "vRead"):
        cluster = VirtualHadoopCluster(block_size=max(file_bytes, 1 << 20),
                                       vread=(mode == "vRead"), costs=costs)
        load_dataset(cluster, "/sens/data",
                     PatternSource(file_bytes, seed=55), favored=["dn1"])
        client = cluster.clients.get()
        cluster.drop_all_caches()

        def read():
            start = cluster.sim.now
            yield from client.read_file("/sens/data", 1 << 20)
            return file_bytes / 1e6 / (cluster.sim.now - start)

        cold = cluster.run(cluster.sim.process(read()))
        warm = cluster.run(cluster.sim.process(read()))
        throughput[mode] = (cold, warm)
    cold_gain = (throughput["vRead"][0] / throughput["vanilla"][0] - 1) * 100
    warm_gain = (throughput["vRead"][1] / throughput["vanilla"][1] - 1) * 100
    return cold_gain, warm_gain


def run(knobs: Sequence[str] = DEFAULT_KNOBS,
        scales: Sequence[float] = SCALES,
        file_bytes: int = 16 << 20) -> SensitivityResult:
    """Run the experiment; see the module docstring for the setup."""
    base = CostModel()
    cells = {}
    baseline = _improvements(base, file_bytes)
    for knob in knobs:
        for scale in scales:
            if scale == 1.0:
                cells[(knob, scale)] = baseline
                continue
            costs = base.with_overrides(
                **{knob: getattr(base, knob) * scale})
            cells[(knob, scale)] = _improvements(costs, file_bytes)
    return SensitivityResult(cells)


def _cold_gain_gap(knob: str, first: float, then: float):
    """Measure: cold-read gain with ``knob`` at ``first`` minus ``then``."""
    return lambda r: r.cells[(knob, first)][0] - r.cells[(knob, then)][0]


CLAIMS = (
    Claim("sensitivity-always-positive", "min cold or warm vRead gain (%)",
          lambda r: min(min(cell) for cell in r.cells.values()), above(0)),
    # Costlier vRead copies must shrink its advantage, a costlier vanilla
    # path must grow it.
    Claim("sensitivity-vread-copy-cost", "cold gain, vRead copies x0.5 - x2 "
          "(pts)", _cold_gain_gap("vread_copy_cycles_per_byte", 0.5, 2.0),
          above(0)),
    Claim("sensitivity-checksum-cost", "cold gain, checksums x2 - x0.5 (pts)",
          _cold_gain_gap("hdfs_checksum_cycles_per_byte", 2.0, 0.5),
          above(0)),
)
