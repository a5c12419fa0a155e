"""Extension experiment: read SLOs under cluster churn, vanilla vs vRead.

The paper's evaluation holds the cluster still; this extension churns it
while clients read.  On a two-rack, four-host cluster (replication 2),
two clients run closed-loop reads for a fixed window while the
membership controller plays a churn script against them:

* ``none`` — static cluster (the control: both modes at steady state);
* ``migrate`` — the vRead daemon serving client 1 crashes, ``datanode2``
  live-migrates across racks, and the daemon restarts — the Section 6
  recovery story: the library degrades to the vanilla path on daemon
  timeout, the migrated node's hash-table entries are rebound on every
  host, and the restarted daemon is re-probed until the library recovers;
* ``full`` — ``migrate`` plus a graceful decommission of ``dn4`` (drain,
  detach, background re-replication to restore the replication factor)
  and a fresh datanode joining on the vacated host, followed by a
  rebalancer pass.

Reported per (mode, churn) point: read latency (mean / p99), the
fraction of the window any library spent degraded to the vanilla path,
re-probe and recovery counts, re-replication traffic, and the final
membership version.  Every step is driven by named streams and the
membership controller's deterministic bookkeeping, so sweep fan-out
across worker processes is byte-identical to the serial run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.cluster import VirtualHadoopCluster, rack_cluster
from repro.experiments.common import FigureResult
from repro.faults.retry import VReadClientPolicy
from repro.sim import AllOf
from repro.storage.content import PatternSource

MODES = ("vanilla", "vRead")
CHURN_LEVELS = ("none", "migrate", "full")


@dataclass
class ChurnPoint:
    """One (mode, churn) measurement."""

    reads: int
    mean_ms: float
    p99_ms: float
    #: Fraction of the window any vRead library spent degraded (0.0 for
    #: vanilla mode).
    degraded_fraction: float
    reprobes: int
    recoveries: int
    #: Mean degrade->recover latency over observed recoveries (ms).
    recovery_ms: float
    re_replications: int
    re_replication_bytes: int
    rebalance_moves: int
    membership_version: int


def _percentile(samples: List[float], fraction: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[index]


def _measure(vread: bool, churn: str, file_bytes: int, duration: float,
             seed: int = 0) -> ChurnPoint:
    """Closed-loop reads under one churn script; see the module docstring."""
    if churn not in CHURN_LEVELS:
        raise ValueError(
            f"unknown churn level {churn!r}; expected one of {CHURN_LEVELS}")
    topology = rack_cluster(2, 2, clients=2)
    cluster = VirtualHadoopCluster(
        block_size=max(file_bytes // 2, 256 << 10), replication=2,
        vread=vread, topology=topology, seed=seed)
    sim = cluster.sim
    controller = cluster.membership
    if vread:
        # Scale the library's conversation timeouts to the measurement
        # window: the defaults (0.25s open / 5s read / 1s re-probe)
        # assume long-lived clusters, so a daemon crash mid-read would
        # park the reader well past ``t_end``.  Must be set before the
        # first ``clients.get`` — libraries bind their policy then.
        cluster.vread_manager.client_policy = VReadClientPolicy(
            open_timeout=duration / 50, read_timeout=duration / 10,
            reprobe_interval=duration / 10)
    payloads = [PatternSource(file_bytes, seed=90 + i) for i in range(2)]

    def load():
        for i, payload in enumerate(payloads):
            yield from cluster.write_dataset(f"/churn/f{i}", payload)

    cluster.run(sim.process(load()))
    cluster.settle()
    clients = [cluster.clients.get(vm=vm) for vm in cluster.client_vms]

    def warm(index):
        yield from clients[index].read_file(f"/churn/f{index}", 1 << 20)

    cluster.run_all([sim.process(warm(i)) for i in range(2)])

    # The controller's monitor drives drain + re-replication; a short
    # heartbeat keeps the repair sweep inside the measured window.
    if churn == "full":
        controller.ensure_monitor(heartbeat_interval=duration / 20)

    t_end = sim.now + duration
    latencies: List[float] = []
    degraded_time = [0.0]
    recovery_latencies: List[float] = []

    think = duration / 400

    def reader(index):
        while sim.now < t_end:
            start = sim.now
            source = yield from clients[index].read_file(
                f"/churn/f{index}", 1 << 20)
            if not source.same_bytes(payloads[index]):
                raise RuntimeError(
                    f"data mismatch reading /churn/f{index}")
            latencies.append(sim.now - start)
            yield sim.timeout(think)

    def sampler():
        """Accumulate degraded wall-time and degrade->recover latencies."""
        manager = cluster.vread_manager
        interval = duration / 200
        previous: Dict[str, float] = {}
        while sim.now < t_end:
            yield sim.timeout(interval)
            if manager is None:
                continue
            now_degraded: Dict[str, float] = {}
            for name, library in manager._libraries.items():
                if library.degraded_since is not None:
                    now_degraded[name] = library.degraded_since
            if now_degraded:
                degraded_time[0] += interval
            for name, since in previous.items():
                if name not in now_degraded:
                    recovery_latencies.append(sim.now - since)
            previous = now_degraded

    def churn_script():
        if churn == "none":
            return
        # Targets resolved from the runtime view: the second datanode
        # moves to the first host of the far rack; the last datanode
        # drains and a fresh one joins on its vacated host.
        mover = cluster.datanodes[1].vm
        far_host = cluster.hosts[len(cluster.hosts) // 2]
        last_dn = cluster.datanodes[-1].datanode_id
        vacated = cluster.datanodes[-1].vm.host
        # -- migrate leg: crash the daemon serving client 1 so its
        # library degrades, move a datanode across racks while the
        # daemon is down, then restart it and let the re-probe recover.
        daemon = None
        if vread:
            daemon = cluster.vread_manager.daemon_of(cluster.client_vms[1])
        yield sim.timeout(0.15 * duration)
        if daemon is not None:
            daemon.crash()
        # Small guest RAM keeps the pre-copy inside the measurement
        # window (the 2GB default takes ~6s on a contended LAN).
        yield from controller.migrate(mover, far_host, ram_bytes=64 << 20)
        yield sim.timeout(0.1 * duration)
        if daemon is not None:
            # The library degraded on the crashed daemon's timeout; once
            # the daemon is back, its periodic re-probe recovers the fast
            # path (reprobe_interval after the degrade).
            daemon.restart()
        if churn == "full":
            yield sim.timeout(0.1 * duration)
            yield from controller.decommission_datanode(
                last_dn, poll_interval=duration / 50)
            controller.add_datanode(vacated)
            yield sim.timeout(0.2 * duration)
            yield from controller.monitor.rebalance(max_moves=4)

    processes = [sim.process(reader(i)) for i in range(2)]
    processes.append(sim.process(sampler()))
    processes.append(sim.process(churn_script()))

    def whole_run():
        yield AllOf(sim, processes)

    cluster.run(sim.process(whole_run()))
    controller.stop_monitor()
    cluster.settle()

    manager = cluster.vread_manager
    reprobes = recoveries = 0
    if manager is not None:
        reprobes = sum(lib.reprobes for lib in manager._libraries.values())
        recoveries = sum(lib.recoveries
                         for lib in manager._libraries.values())
    monitor = controller.monitor
    return ChurnPoint(
        reads=len(latencies),
        mean_ms=1e3 * sum(latencies) / max(1, len(latencies)),
        p99_ms=1e3 * (_percentile(latencies, 0.99) if latencies else 0.0),
        degraded_fraction=degraded_time[0] / duration,
        reprobes=reprobes,
        recoveries=recoveries,
        recovery_ms=(1e3 * sum(recovery_latencies) / len(recovery_latencies)
                     if recovery_latencies else 0.0),
        re_replications=monitor.re_replications if monitor else 0,
        re_replication_bytes=monitor.re_replication_bytes if monitor else 0,
        rebalance_moves=monitor.rebalance_moves if monitor else 0,
        membership_version=controller.version,
    )


def points(churn_levels: Sequence[str] = CHURN_LEVELS,
           **_ignored) -> List[Tuple[str, str]]:
    """Every (mode, churn level) point."""
    return [(mode, churn) for mode in MODES for churn in churn_levels]


def run_point(point: Tuple[str, str], seed: int, file_bytes: int = 2 << 20,
              duration: float = 2.0, **_ignored) -> ChurnPoint:
    """Measure one point on a cluster seeded with the derived seed."""
    mode, churn = point
    return _measure(mode == "vRead", churn, file_bytes, duration, seed)


def assemble(values: Dict[Tuple[str, str], ChurnPoint],
             churn_levels: Sequence[str] = CHURN_LEVELS,
             file_bytes: int = 2 << 20,
             duration: float = 2.0) -> FigureResult:
    """Build the figure from measured ``(mode, churn) -> ChurnPoint``."""
    series: Dict[str, List[float]] = {}
    for mode in MODES:
        series[f"{mode} p99"] = [values[(mode, c)].p99_ms
                                 for c in churn_levels]
    series["vRead degraded %"] = [
        100.0 * values[("vRead", c)].degraded_fraction
        for c in churn_levels]
    worst = values[("vRead", churn_levels[-1])]
    return FigureResult(
        figure="Extension (cluster churn)",
        title="read p99 and vRead degradation vs churn level",
        x_label="churn",
        x_values=list(churn_levels),
        series=series,
        unit="ms / %",
        notes=(f"{file_bytes >> 20}MB per client over {duration:g}s; at "
               f"churn={churn_levels[-1]!r} vRead saw {worst.reprobes} "
               f"re-probes, {worst.recoveries} recoveries "
               f"(mean {worst.recovery_ms:.2f}ms back to the fast path), "
               f"{worst.re_replications} re-replications "
               f"({worst.re_replication_bytes >> 20}MB) and "
               f"{worst.rebalance_moves} rebalance moves; membership "
               f"version {worst.membership_version}"),
    )
