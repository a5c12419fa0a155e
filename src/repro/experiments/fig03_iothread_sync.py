"""Figure 3: I/O-thread synchronization overhead (netperf TCP_RR).

netperf server and client in two co-located VMs on a quad-core host.  With
no other load the transaction rate is high; with 2 extra VMs running 85%
lookbusy, vCPU/I/O-thread wakeups queue behind busy cores and the rate
drops (the paper measures ~20%).
"""

from __future__ import annotations

from typing import Sequence

from repro.cluster import VirtualHadoopCluster
from repro.experiments import paper_data
from repro.experiments.claims import (Claim, above, at_least, between,
                                      least_gap, least_step)
from repro.experiments.common import FigureResult
from repro.workloads.netperf import NetperfRR

REQUEST_SIZES = (32 * 1024, 64 * 1024, 128 * 1024)
SIZE_LABELS = {32 * 1024: "32KB", 64 * 1024: "64KB", 128 * 1024: "128KB"}


def _measure(request_bytes: int, total_vms: int, duration: float) -> float:
    cluster = VirtualHadoopCluster(block_size=1 << 20,
                                   total_vms_per_host=total_vms)
    rr = NetperfRR(cluster.network, cluster.client_vm,
                   cluster.datanode_vms[0], request_bytes=request_bytes)

    def proc():
        return (yield from rr.run(duration))

    rate = cluster.run(cluster.sim.process(proc()))
    cluster.stop_background()
    return rate


def run(request_sizes: Sequence[int] = REQUEST_SIZES,
        duration: float = 0.3) -> FigureResult:
    """Run the Figure 3 experiment; rates are transactions/second."""
    series = {"2vms": [], "4vms": []}
    for request_bytes in request_sizes:
        series["2vms"].append(_measure(request_bytes, 2, duration))
        series["4vms"].append(_measure(request_bytes, 4, duration))
    return FigureResult(
        figure="Fig 3",
        title="I/O threads synchronization overhead (netperf TCP_RR)",
        x_label="request size",
        x_values=[SIZE_LABELS.get(s, str(s)) for s in request_sizes],
        series=series,
        unit="tx/s",
        notes=f"duration={duration}s per point, quad-core, lookbusy 85%",
    )


def _max_drop_pct(r: FigureResult) -> float:
    return max((two - four) / two * 100.0
               for two, four in zip(r.series["2vms"], r.series["4vms"]))


CLAIMS = (
    Claim("fig03-contention-drop", "min 2-VM - 4-VM rate (tx/s)",
          lambda r: least_gap(r.series["2vms"], r.series["4vms"]), above(0)),
    Claim("fig03-max-drop", "max 4-VM rate drop (%)", _max_drop_pct,
          between(5.0, 50.0), paper=paper_data.FIG3_RATE_DROP_PCT),
    Claim("fig03-rate-falls-with-size", "min 2-VM rate fall per size (tx/s)",
          lambda r: least_step(r.series["2vms"][::-1]), at_least(0)),
)
