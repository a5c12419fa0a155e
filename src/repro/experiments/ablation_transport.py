"""Ablation: RDMA vs TCP daemon transports for remote vRead reads.

The paper's footnote 2 says the TCP prototype "consumes more CPU cycles for
remote reads"; this experiment quantifies throughput and daemon CPU for
both transports on the same remote-read workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.cluster import VirtualHadoopCluster
from repro.experiments.claims import Claim, above, at_least
from repro.experiments.common import (
    daemon_view, load_dataset)
from repro.metrics.report import Table
from repro.storage.content import PatternSource


@dataclass
class TransportResult:
    #: transport -> (cold MBps, warm MBps, daemon CPU ms)
    """Structured result of this experiment (render() for the table)."""
    transports: Dict[str, Tuple[float, float, float]]

    def render(self) -> str:
        """Render the result as paper-style ASCII tables."""
        table = Table(["transport", "cold read MB/s", "re-read MB/s",
                       "daemon CPU (ms)"],
                      title="Ablation: remote-read daemon transport "
                            "(paper footnote 2 / Figs 7-8)")
        for transport, (cold, warm, cpu) in self.transports.items():
            table.add_row(transport, f"{cold:.0f}", f"{warm:.0f}",
                          f"{cpu:.1f}")
        return table.render()

    @property
    def cpu_ratio(self) -> float:
        """daemon CPU: TCP / RDMA (how much the TCP fallback overpays)."""
        return self.transports["tcp"][2] / self.transports["rdma"][2]


def _measure(transport: str, file_bytes: int) -> Tuple[float, float, float]:
    cluster = VirtualHadoopCluster(block_size=max(file_bytes, 1 << 20),
                                   vread=True, vread_transport=transport)
    load_dataset(cluster, "/abl/data", PatternSource(file_bytes, seed=62),
                 favored=["dn2"])  # remote datanode
    client = cluster.clients.get()
    cluster.drop_all_caches()
    marks = [host.accounting.snapshot() for host in cluster.hosts]

    def read():
        start = cluster.sim.now
        yield from client.read_file("/abl/data", 1 << 20)
        return file_bytes / 1e6 / (cluster.sim.now - start)

    cold = cluster.run(cluster.sim.process(read()))
    warm = cluster.run(cluster.sim.process(read()))
    daemon_threads = set(daemon_view(cluster))
    daemon_cpu = 0.0
    for host, mark in zip(cluster.hosts, marks):
        window = host.accounting.since(mark)
        for thread, seconds in window.by_thread().items():
            if thread in daemon_threads:
                daemon_cpu += seconds
    return cold, warm, daemon_cpu * 1e3


def run(file_bytes: int = 32 << 20) -> TransportResult:
    """Run the experiment; see the module docstring for the setup."""
    return TransportResult({
        "rdma": _measure("rdma", file_bytes),
        "tcp": _measure("tcp", file_bytes),
    })


CLAIMS = (
    Claim("transport-rdma-cold", "cold-read MB/s, RDMA - TCP",
          lambda r: r.transports["rdma"][0] - r.transports["tcp"][0],
          at_least(0)),
    Claim("transport-rdma-warm", "re-read MB/s, RDMA - TCP",
          lambda r: r.transports["rdma"][1] - r.transports["tcp"][1],
          at_least(0)),
    # "it consumes more CPU cycles for remote reads" (footnote 2).
    Claim("transport-tcp-overpays", "daemon CPU, TCP / RDMA",
          lambda r: r.cpu_ratio, above(1.5)),
)
