"""Ablation: HDFS data-transfer packet size on the vanilla read path.

Real HDFS streams blocks in 64 KB packets.  The packet size sets the
pipelining granularity of the vanilla path (disk | datanode CPU | vhost |
client CPU overlap): tiny packets drown in per-packet costs, huge packets
serialize the stages.  vRead sidesteps the whole trade-off, which this
sweep makes visible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from repro.cluster import VirtualHadoopCluster
from repro.experiments.claims import Claim, above, at_least
from repro.experiments.common import load_dataset
from repro.metrics.report import Table
from repro.storage.content import PatternSource

PACKET_SIZES = (16 * 1024, 64 * 1024, 256 * 1024, 1 << 20, 4 << 20)


@dataclass
class PacketSizeResult:
    #: packet bytes -> cold-read MBps (vanilla)
    """Structured result of this experiment (render() for the table)."""
    vanilla: Dict[int, float]
    vread_reference: float

    def render(self) -> str:
        """Render the result as paper-style ASCII tables."""
        table = Table(["HDFS packet size", "vanilla cold read MB/s"],
                      title="Ablation: vanilla streaming packet size "
                            f"(vRead reference: {self.vread_reference:.0f} "
                            f"MB/s, packet-size independent)")
        for packet, mbps in self.vanilla.items():
            table.add_row(f"{packet >> 10}KB", f"{mbps:.0f}")
        return table.render()


def _measure(packet_bytes, vread: bool, file_bytes: int) -> float:
    kwargs = {"block_size": max(file_bytes, 1 << 20), "vread": vread}
    if packet_bytes is not None:
        kwargs["packet_bytes"] = packet_bytes
    cluster = VirtualHadoopCluster(**kwargs)
    load_dataset(cluster, "/abl/data", PatternSource(file_bytes, seed=64),
                 favored=["dn1"])
    client = cluster.clients.get()
    cluster.drop_all_caches()

    def read():
        start = cluster.sim.now
        yield from client.read_file("/abl/data", 1 << 20)
        return file_bytes / 1e6 / (cluster.sim.now - start)

    return cluster.run(cluster.sim.process(read()))


def run(file_bytes: int = 32 << 20,
        packet_sizes: Sequence[int] = PACKET_SIZES) -> PacketSizeResult:
    """Run the experiment; see the module docstring for the setup."""
    vanilla = {packet: _measure(packet, False, file_bytes)
               for packet in packet_sizes}
    vread_reference = _measure(None, True, file_bytes)
    return PacketSizeResult(vanilla, vread_reference)


CLAIMS = (
    Claim("packet-size-tiny-loses", "vanilla MB/s, 256KB / 16KB packets",
          lambda r: r.vanilla[256 * 1024] / r.vanilla[16 * 1024], above(1.5)),
    Claim("packet-size-huge-no-better", "vanilla MB/s, 256KB - 4MB packets",
          lambda r: r.vanilla[256 * 1024] - r.vanilla[4 << 20], at_least(0)),
    Claim("packet-size-vread-beats-best", "vRead - best vanilla MB/s",
          lambda r: r.vread_reference - max(r.vanilla.values()), above(0)),
)
