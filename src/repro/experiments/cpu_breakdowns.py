"""Figures 6, 7, 8: CPU-utilization breakdowns for a 1 GB HDFS read.

The paper reads a 1 GB file with 1 MB requests and charts average CPU
utilization by component:

* Fig 6 — client VM and datanode VM, **co-located** (no virtual network
  with vRead at all);
* Fig 7 — **remote** read with RDMA daemons (rdma cost higher on the
  datanode side: active push);
* Fig 8 — remote read with the **TCP** daemon transport (vRead-net is less
  efficient than in-kernel vhost-net, but total is still below vanilla).

Each run measures two views: the client side (client VM's threads) and the
data-serving side (datanode VM's threads for vanilla; vRead daemon/service
threads for vRead).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster import VirtualHadoopCluster
from repro.experiments.common import (
    BreakdownResult,
    BreakdownViews,
    client_view,
    daemon_view,
    datanode_view,
    load_dataset,
)
from repro.storage.content import PatternSource


@dataclass
class CpuBreakdownResult:
    """Structured result of this experiment (render() for the table)."""
    client: BreakdownResult
    serving: BreakdownResult

    def render(self) -> str:
        """Render the result as paper-style ASCII tables."""
        return self.client.render() + "\n\n" + self.serving.render()

    def client_saving_pct(self) -> float:
        """Total client-side CPU saving of vRead vs vanilla (%)."""
        vanilla = self.client.bars["vanilla"].total
        vread = self.client.bars["vRead"].total
        return (vanilla - vread) / vanilla * 100.0

    def serving_saving_pct(self) -> float:
        """Total serving-side CPU saving of vRead vs vanilla (%)."""
        vanilla = self.serving.bars["vanilla-datanode"].total
        vread = self.serving.bars["vRead-daemon"].total
        return (vanilla - vread) / vanilla * 100.0


def _measure(vread: bool, scenario: str, transport: str,
             file_bytes: int, request_bytes: int):
    cluster = VirtualHadoopCluster(block_size=max(file_bytes, 1 << 20),
                                   vread=vread, vread_transport=transport)
    favored = ["dn1"] if scenario == "colocated" else ["dn2"]
    dn_index = 0 if scenario == "colocated" else 1
    load_dataset(cluster, "/fig-cpu/data", PatternSource(file_bytes, seed=6),
                 favored=favored)
    cluster.drop_all_caches()
    client = cluster.clients.get()
    views = BreakdownViews(cluster)
    views.mark()

    def proc():
        yield from client.read_file("/fig-cpu/data", request_bytes)

    cluster.run(cluster.sim.process(proc()))
    client_threads = client_view(cluster)
    if vread and scenario == "colocated":
        # Fig 6: the host's daemons are the serving side ("vRead-daemon").
        serving_threads = daemon_view(cluster, host_index=0)
    elif vread:
        # Figs 7/8: requester-side daemons belong on the client chart (the
        # paper's client bars include the rdma / vRead-net cost); the remote
        # host's service is the datanode side.
        client_threads = client_threads + daemon_view(cluster, host_index=0)
        serving_threads = daemon_view(cluster, host_index=1)
    else:
        serving_threads = datanode_view(cluster, dn_index)
    collected = views.collect({
        "client": client_threads,
        "serving": serving_threads,
    })
    return collected["client"], collected["serving"]


def _run(figure: str, scenario: str, transport: str, file_bytes: int,
         request_bytes: int, title: str) -> CpuBreakdownResult:
    vread_client, vread_serving = _measure(True, scenario, transport,
                                           file_bytes, request_bytes)
    vanilla_client, vanilla_serving = _measure(False, scenario, transport,
                                               file_bytes, request_bytes)
    note = f"file={file_bytes >> 20}MB, request={request_bytes >> 10}KB"
    return CpuBreakdownResult(
        client=BreakdownResult(
            figure + "(a)", f"Client CPU utilization — {title}",
            {"vRead": vread_client, "vanilla": vanilla_client}, notes=note),
        serving=BreakdownResult(
            figure + "(b)", f"Datanode-side CPU utilization — {title}",
            {"vRead-daemon": vread_serving,
             "vanilla-datanode": vanilla_serving}, notes=note),
    )


def run_fig06(file_bytes: int = 64 << 20,
              request_bytes: int = 1 << 20) -> CpuBreakdownResult:
    """Fig 6: co-located read."""
    return _run("Fig 6", "colocated", "rdma", file_bytes, request_bytes,
                "co-located read")


def run_fig07(file_bytes: int = 64 << 20,
              request_bytes: int = 1 << 20) -> CpuBreakdownResult:
    """Fig 7: remote read, RDMA daemons."""
    return _run("Fig 7", "remote", "rdma", file_bytes, request_bytes,
                "remote read with RDMA")


def run_fig08(file_bytes: int = 64 << 20,
              request_bytes: int = 1 << 20) -> CpuBreakdownResult:
    """Fig 8: remote read, TCP daemon transport."""
    return _run("Fig 8", "remote", "tcp", file_bytes, request_bytes,
                "remote read with TCP")
