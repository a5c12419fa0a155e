"""Ablation: storage device tiers (HDD / SSD / NVMe) x vanilla vs vRead.

vRead removes per-byte CPU work (virtio exits, guest FS, TCP loopback,
checksum copies) from the read path; what it cannot remove is device
time.  Sweeping the same co-located read workload across the three
:mod:`repro.storage.device` profiles locates the crossover: on HDD the
spindle dominates the cold read and both paths converge, while on NVMe
almost every remaining microsecond is CPU, so the vRead advantage peaks.
Re-reads come from the host page cache on either path and show the
CPU-only gap regardless of tier.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.cluster import VirtualHadoopCluster
from repro.experiments.claims import Claim, above
from repro.experiments.common import (FigureResult, load_dataset,
                                      pct_improvement)
from repro.storage.content import PatternSource

#: Device classes swept, slowest first (the x-axis).
TIERS = ("hdd", "ssd", "nvme")
MODES = ("vanilla", "vRead")


def points(**_ignored) -> List[Tuple[str, str]]:
    """Every (tier, mode) cell, slowest tier first."""
    return [(tier, mode) for tier in TIERS for mode in MODES]


def run_point(point: Tuple[str, str], seed: int, file_bytes: int = 32 << 20,
              **_ignored) -> Tuple[float, float]:
    """Cold and cache-warm co-located read MB/s of one (tier, mode) cell.

    Cells are seed-free (fully determined by the grid); the derived seed
    is accepted for the runner's interface.
    """
    tier, mode = point
    cluster = VirtualHadoopCluster(block_size=max(file_bytes, 1 << 20),
                                   vread=(mode == "vRead"), storage=tier)
    load_dataset(cluster, "/tiers/data", PatternSource(file_bytes, seed=81),
                 favored=["dn1"])  # co-located datanode
    client = cluster.clients.get()
    cluster.drop_all_caches()

    def read():
        start = cluster.sim.now
        yield from client.read_file("/tiers/data", 1 << 20)
        return file_bytes / 1e6 / (cluster.sim.now - start)

    cold = cluster.run(cluster.sim.process(read()))
    warm = cluster.run(cluster.sim.process(read()))
    return cold, warm


def assemble(values: Dict[Tuple[str, str], Tuple[float, float]],
             file_bytes: int = 32 << 20, **_ignored) -> FigureResult:
    """Build the figure from ``(tier, mode) -> (cold, warm)`` cells."""
    series = {f"{mode} cold": [values[(tier, mode)][0] for tier in TIERS]
              for mode in MODES}
    for mode in MODES:
        series[f"{mode} re-read"] = [values[(tier, mode)][1]
                                     for tier in TIERS]
    return FigureResult(
        figure="Ablation (storage tiers)",
        title="Co-located read throughput vs storage device class",
        x_label="device",
        x_values=list(TIERS),
        series=series,
        unit="MBps",
        notes=f"{file_bytes >> 20}MB file; cold = after "
              "drop_all_caches, re-read = host page cache warm",
    )


def _cold_gain(r: FigureResult, tier: str) -> float:
    return pct_improvement(r.value("vanilla cold", tier),
                           r.value("vRead cold", tier))


CLAIMS = (
    # Fast media shift the bottleneck from the device to the CPU, where
    # vRead wins.
    Claim("tiers-nvme-gains-most", "vRead cold gain, NVMe - HDD (pts)",
          lambda r: _cold_gain(r, "nvme") - _cold_gain(r, "hdd"), above(0)),
)
