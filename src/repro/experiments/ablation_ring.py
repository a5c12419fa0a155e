"""Ablation: shared-ring geometry and response chunking.

The paper fixes the ivshmem object at 1024 x 4 KiB slots.  This experiment
sweeps the response-chunk size (how much the daemon copies into the ring
per doorbell) and the ring capacity, showing the pipelining trade-off:
tiny chunks pay per-chunk eventfd/virq overheads; chunks as large as the
ring serialize the daemon and the guest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.cluster import VirtualHadoopCluster
from repro.experiments.claims import Claim, above
from repro.experiments.common import load_dataset
from repro.metrics.report import Table
from repro.storage.content import PatternSource

CHUNK_SIZES = (64 * 1024, 256 * 1024, 1 << 20, 4 << 20)
RING_SLOTS = (256, 1024)


@dataclass
class RingResult:
    #: (slots, chunk_bytes) -> warm-read MBps
    """Structured result of this experiment (render() for the table)."""
    cells: Dict[Tuple[int, int], float]

    def render(self) -> str:
        """Render the result as paper-style ASCII tables."""
        table = Table(["ring slots", "chunk size", "re-read MB/s"],
                      title="Ablation: vRead ring geometry / chunking")
        for (slots, chunk), mbps in self.cells.items():
            table.add_row(slots, f"{chunk >> 10}KB", f"{mbps:.0f}")
        return table.render()


def _measure(slots: int, chunk_bytes: int, file_bytes: int) -> float:
    cluster = VirtualHadoopCluster(block_size=max(file_bytes, 1 << 20),
                                   vread=True, vread_ring_slots=slots,
                                   vread_chunk_bytes=chunk_bytes)
    load_dataset(cluster, "/abl/data", PatternSource(file_bytes, seed=63),
                 favored=["dn1"])
    client = cluster.clients.get()

    def read():
        start = cluster.sim.now
        yield from client.read_file("/abl/data", 4 << 20)
        return file_bytes / 1e6 / (cluster.sim.now - start)

    cluster.run(cluster.sim.process(read()))  # warm up
    return cluster.run(cluster.sim.process(read()))


def run(file_bytes: int = 32 << 20,
        chunk_sizes: Sequence[int] = CHUNK_SIZES,
        ring_slots: Sequence[int] = RING_SLOTS) -> RingResult:
    """Run the experiment; see the module docstring for the setup."""
    cells = {}
    for slots in ring_slots:
        for chunk in chunk_sizes:
            cells[(slots, chunk)] = _measure(slots, chunk, file_bytes)
    return RingResult(cells)


CLAIMS = (
    Claim("ring-doorbell-overhead", "1024 slots, 256KB - 64KB chunk MB/s",
          lambda r: r.cells[(1024, 256 * 1024)] - r.cells[(1024, 64 * 1024)],
          above(0)),
    # With 1024 x 4KiB slots a 4MB chunk fills the whole ring, which
    # serializes the daemon and the guest.
    Claim("ring-whole-ring-chunk", "1024 slots, 256KB - 4MB chunk MB/s",
          lambda r: r.cells[(1024, 256 * 1024)] - r.cells[(1024, 4 << 20)],
          above(0)),
    Claim("ring-every-cell-reads", "min re-read MB/s of any geometry",
          lambda r: min(r.cells.values()), above(0)),
)
