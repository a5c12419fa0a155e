"""Ablation: mounted host-FS reads vs "direct read bypassing the host FS".

Paper Section 6 weighs the alternative design where the daemon reads the
raw virtual disk directly: no mounts, no dentry refreshes — but no host
page cache either (every read hits the SSD) and a manual address
translation per read.  This experiment quantifies that trade-off: the
bypass mode should roughly tie on cold reads and lose badly on re-reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.cluster import VirtualHadoopCluster
from repro.experiments.claims import Claim, above, at_most, below, equal
from repro.experiments.common import load_dataset
from repro.metrics.report import Table
from repro.storage.content import PatternSource


@dataclass
class DirectReadResult:
    #: mode -> (cold MBps, warm MBps, refreshes performed)
    """Structured result of this experiment (render() for the table)."""
    modes: Dict[str, Tuple[float, float, int]]

    def render(self) -> str:
        """Render the result as paper-style ASCII tables."""
        table = Table(["daemon mode", "cold read MB/s", "re-read MB/s",
                       "mount refreshes"],
                      title="Ablation (paper §6): mounted host FS vs "
                            "direct read bypassing it")
        for mode, (cold, warm, refreshes) in self.modes.items():
            table.add_row(mode, f"{cold:.0f}", f"{warm:.0f}", refreshes)
        return table.render()


def _measure(bypass: bool, file_bytes: int) -> Tuple[float, float, int]:
    cluster = VirtualHadoopCluster(block_size=max(file_bytes, 1 << 20),
                                   vread=True,
                                   vread_bypass_host_fs=bypass)
    load_dataset(cluster, "/abl/data", PatternSource(file_bytes, seed=61),
                 favored=["dn1"])
    client = cluster.clients.get()
    cluster.drop_all_caches()

    def read():
        start = cluster.sim.now
        yield from client.read_file("/abl/data", 1 << 20)
        return file_bytes / 1e6 / (cluster.sim.now - start)

    cold = cluster.run(cluster.sim.process(read()))
    warm = cluster.run(cluster.sim.process(read()))
    refreshes = cluster.vread_manager.service_for(cluster.hosts[0]).refreshes
    return cold, warm, refreshes


def run(file_bytes: int = 32 << 20) -> DirectReadResult:
    """Run the experiment; see the module docstring for the setup."""
    mounted = _measure(False, file_bytes)
    bypass = _measure(True, file_bytes)
    return DirectReadResult({"mounted host FS": mounted,
                             "bypass host FS": bypass})


_MOUNTED, _BYPASS = "mounted host FS", "bypass host FS"

CLAIMS = (
    Claim("direct-read-cold-tie", "|mounted - bypass| / mounted cold MB/s",
          lambda r: (abs(r.modes[_MOUNTED][0] - r.modes[_BYPASS][0])
                     / r.modes[_MOUNTED][0]), below(0.20)),
    # The mount-based design wins re-reads through the host page cache.
    Claim("direct-read-mounted-rereads", "re-read MB/s, mounted / bypass",
          lambda r: r.modes[_MOUNTED][1] / r.modes[_BYPASS][1], above(2.0)),
    Claim("direct-read-bypass-no-refresh", "bypass mount refreshes",
          lambda r: r.modes[_BYPASS][2], equal(0)),
    Claim("direct-read-mounted-refreshes", "mounted mount refreshes",
          lambda r: r.modes[_MOUNTED][2], above(0)),
    Claim("direct-read-bypass-no-cache", "bypass re-read / cold MB/s",
          lambda r: r.modes[_BYPASS][1] / r.modes[_BYPASS][0], at_most(1.1)),
)
