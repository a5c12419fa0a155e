"""Extension experiment: multi-rack scale-out over the leaf-spine fabric.

The paper's testbed is two hosts behind one switch.  This extension asks
what vRead buys once a virtualized Hadoop cluster spans racks: every host
runs a client VM and a datanode VM, blocks are placed with HDFS's
rack-aware rule (replica 2 on a remote rack), and all clients read their
files concurrently.  Cross-rack traffic crosses an oversubscribed
ToR->aggregation uplink, and the vRead transports pick RDMA inside a rack
but user-space TCP across racks — so the aggregate-throughput curve bends
where the fabric, not the host CPU, becomes the bottleneck.

Every read is verified against its written payload with
:meth:`~repro.storage.content.ByteSource.same_bytes`: a read that resolves
to the payload's own window is equal by identity, without synthesizing or
hashing the 16 MB.  The rack-aware placement decisions are visible in the
cluster trace as ``placement.*`` counter events.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.cluster import VirtualHadoopCluster, rack_cluster
from repro.experiments.common import FigureResult
from repro.metrics.report import GroupedTotals
from repro.sim import AllOf
from repro.storage.content import PatternSource

#: Hosts behind each top-of-rack switch in the sweep layouts.
HOSTS_PER_RACK = 2


@dataclass
class RackPoint:
    """One (mode, n_racks) measurement: aggregate and per-rack/-host MB/s."""
    aggregate_mbps: float
    per_rack_mbps: Dict[str, float]
    per_host_mbps: Dict[str, float]
    #: Blocks whose replicas span more than one rack (from the trace).
    cross_rack_blocks: int


def _measure(vread: bool, n_racks: int, file_bytes: int,
             hosts_per_rack: int = HOSTS_PER_RACK) -> RackPoint:
    """Concurrent per-host client reads on an ``n_racks``-rack cluster."""
    topology = rack_cluster(n_racks, hosts_per_rack,
                            clients=n_racks * hosts_per_rack)
    n_datanodes = topology.counts()["datanode"]
    replication = min(3, n_datanodes)
    cluster = VirtualHadoopCluster(block_size=max(file_bytes, 1 << 20),
                                   replication=replication,
                                   vread=vread, topology=topology)
    payloads = [PatternSource(file_bytes, seed=80 + i)
                for i in range(len(cluster.client_vms))]

    def load():
        for i, payload in enumerate(payloads):
            yield from cluster.write_dataset(f"/racks/f{i}", payload)

    cluster.run(cluster.sim.process(load()))
    cluster.settle()
    clients = [cluster.clients.get(vm=vm) for vm in cluster.client_vms]

    def reader(client, index):
        source = yield from client.read_file(f"/racks/f{index}", 1 << 20)
        if not source.same_bytes(payloads[index]):
            raise RuntimeError(
                f"data mismatch reading /racks/f{index} "
                f"on {client.vm.name}")

    def job():
        readers = [cluster.sim.process(reader(client, i))
                   for i, client in enumerate(clients)]
        yield AllOf(cluster.sim, readers)

    # Warm pass first, measured pass second (as in scale_clients): caches
    # are warm, so host CPU and the shared fabric set the aggregate.
    cluster.run(cluster.sim.process(job()))
    start = cluster.sim.now
    cluster.run(cluster.sim.process(job()))
    elapsed = cluster.sim.now - start

    per_client = file_bytes / 1e6 / elapsed
    racks = GroupedTotals()
    for vm in cluster.client_vms:
        racks.add(vm.host.rack, per_client, host=vm.host.name)
    return RackPoint(
        aggregate_mbps=len(clients) * file_bytes / 1e6 / elapsed,
        per_rack_mbps=racks.totals(),
        per_host_mbps=racks.by_host(),
        cross_rack_blocks=int(
            cluster.fault_counters.total("placement.cross-rack")))


def points(rack_counts: Sequence[int] = (1, 2, 3),
           **_ignored) -> List[Tuple[str, int]]:
    """Every (mode, rack count) point."""
    return [(mode, n_racks) for n_racks in rack_counts
            for mode in ("vanilla", "vRead")]


def run_point(point: Tuple[str, int], seed: int, file_bytes: int = 4 << 20,
              **_ignored) -> RackPoint:
    """Measure one point; placement is deterministic, so the seed is
    unused."""
    mode, n_racks = point
    return _measure(mode == "vRead", n_racks, file_bytes)


def assemble(values: Dict[Tuple[str, int], RackPoint],
             rack_counts: Sequence[int] = (1, 2, 3),
             file_bytes: int = 4 << 20) -> FigureResult:
    """Build the figure from measured ``(mode, n_racks) -> RackPoint``."""
    series: Dict[str, List[float]] = {
        "vanilla": [values[("vanilla", n)].aggregate_mbps
                    for n in rack_counts],
        "vRead": [values[("vRead", n)].aggregate_mbps for n in rack_counts],
    }
    widest = values[("vRead", max(rack_counts))]
    per_rack = ", ".join(f"{rack}={mbps:.0f}"
                         for rack, mbps in widest.per_rack_mbps.items())
    return FigureResult(
        figure="Extension (rack scale-out)",
        title="Aggregate warm-read throughput vs rack count",
        x_label="racks",
        x_values=list(rack_counts),
        series=series,
        unit="MBps",
        notes=(f"{file_bytes >> 20}MB per client, {HOSTS_PER_RACK} "
               f"hosts/rack, rack-aware replicas "
               f"({widest.cross_rack_blocks} cross-rack blocks at "
               f"{max(rack_counts)} racks; vRead MB/s {per_rack})"),
    )
