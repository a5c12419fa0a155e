"""Extension experiment: multi-client scale-out on one host.

The paper motivates vRead with CPU headroom ("less CPU cycles for the real
Hadoop workload").  This extension quantifies the scalability consequence:
as more client VMs on the same host read from the co-located datanode VM
concurrently, the vanilla path's per-byte CPU appetite saturates the
quad-core much earlier than vRead's — so the aggregate-throughput curves
diverge with client count.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.cluster import VirtualHadoopCluster, paper_fig10
from repro.experiments.common import FigureResult
from repro.sim import AllOf
from repro.storage.content import PatternSource


def _measure(vread: bool, n_clients: int, file_bytes: int) -> float:
    """Aggregate MB/s with ``n_clients`` client VMs reading concurrently."""
    cluster = VirtualHadoopCluster(block_size=max(file_bytes, 1 << 20),
                                   vread=vread,
                                   topology=paper_fig10(clients=n_clients))
    client_vms = cluster.client_vms
    # Each client reads its own file from the co-located datanode.
    def load():
        for i in range(n_clients):
            yield from cluster.write_dataset(
                f"/scale/f{i}", PatternSource(file_bytes, seed=70 + i),
                favored=["dn1"])

    cluster.run(cluster.sim.process(load()))
    cluster.settle()
    clients = [cluster.clients.get(vm=vm) for vm in client_vms]

    def reader(client, index):
        yield from client.read_file(f"/scale/f{index}", 1 << 20)

    def job():
        readers = [cluster.sim.process(reader(client, i))
                   for i, client in enumerate(clients)]
        yield AllOf(cluster.sim, readers)

    # Warm pass first: the measured pass is cache-warm, so the quad-core's
    # CPU — not the SSD — is the binding resource, which is where the
    # vanilla path's extra copies hurt aggregate scalability.
    cluster.run(cluster.sim.process(job()))
    start = cluster.sim.now
    cluster.run(cluster.sim.process(job()))
    elapsed = cluster.sim.now - start
    return n_clients * file_bytes / 1e6 / elapsed


def points(client_counts: Sequence[int] = (1, 2, 4),
           **_ignored) -> List[Tuple[str, int]]:
    """Every (mode, client count) point."""
    return [(mode, n_clients) for n_clients in client_counts
            for mode in ("vanilla", "vRead")]


def run_point(point: Tuple[str, int], seed: int, file_bytes: int = 16 << 20,
              **_ignored) -> float:
    """Measure one point; the run is deterministic, so the seed is unused."""
    mode, n_clients = point
    return _measure(mode == "vRead", n_clients, file_bytes)


def assemble(values: Dict[Tuple[str, int], float],
             client_counts: Sequence[int] = (1, 2, 4),
             file_bytes: int = 16 << 20) -> FigureResult:
    """Build the figure from measured ``(mode, n_clients) -> MB/s`` values."""
    series: Dict[str, List[float]] = {
        "vanilla": [values[("vanilla", n)] for n in client_counts],
        "vRead": [values[("vRead", n)] for n in client_counts],
    }
    return FigureResult(
        figure="Extension (scale-out)",
        title="Aggregate warm-read throughput vs co-located client count",
        x_label="client VMs",
        x_values=list(client_counts),
        series=series,
        unit="MBps",
        notes=f"{file_bytes >> 20}MB per client, quad-core host @2.0GHz",
    )
