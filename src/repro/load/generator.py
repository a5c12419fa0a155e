"""The open-loop multi-tenant load generator.

:meth:`LoadGenerator.run_cluster` drives real HDFS reads through
``cluster.clients.get(vm=...)``, one client VM per tenant.  Arrivals are
scheduled on the simulation clock independently of request completions
(each request runs as its own spawned process), so when the cluster
saturates the queue grows and the latency tail appears — the behaviour a
closed loop structurally cannot show.  A fault plan armed at measurement
start turns the run into a chaos-under-load SLO curve.  Latencies stream
into per-tenant SLO sinks, so memory is bounded by the sinks, not by the
number of requests.

Determinism: every random draw comes from a named
:class:`~repro.sim.rng.RandomStreams` stream derived from ``(seed,
tenant name)``, so a tenant's traffic does not depend on how many other
tenants run beside it, and any fan-out of sweep points across worker
processes reproduces the serial run byte-for-byte.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.load.slo import SloReport, TenantSlo
from repro.load.tenants import TenantSpec
from repro.sim import AllOf
from repro.sim.rng import RandomStreams

__all__ = ["LoadGenerator"]


class LoadGenerator:
    """Seeded open-loop arrivals for a set of tenants, reported via SLO sinks."""

    def __init__(self, tenants: Sequence[TenantSpec], seed: int = 0,
                 window_seconds: float = 0.5, bins_per_decade: int = 100):
        if not tenants:
            raise ValueError("need at least one tenant")
        names = [tenant.name for tenant in tenants]
        if len(set(names)) != len(names):
            raise ValueError(f"tenant names must be unique: {names}")
        self.tenants = list(tenants)
        self.seed = seed
        self.window_seconds = window_seconds
        self.bins_per_decade = bins_per_decade
        self.streams = RandomStreams(seed)

    # ------------------------------------------------------------- plumbing
    def _make_slos(self) -> Dict[str, TenantSlo]:
        return {tenant.name: TenantSlo(tenant.name,
                                       tenant.deadline_seconds,
                                       window_seconds=self.window_seconds,
                                       bins_per_decade=self.bins_per_decade)
                for tenant in self.tenants}

    def _stream(self, purpose: str, tenant: TenantSpec):
        return self.streams.stream(f"load.{purpose}.{tenant.name}")

    # ------------------------------------------------------------------ runs
    def run_cluster(self, cluster, duration: float, mode: str = "auto",
                    dataset_prefix: str = "/load",
                    arm_faults: bool = False,
                    title: str = "open-loop cluster run") -> SloReport:
        """Drive real reads through the cluster's client facade.

        Tenant ``i`` uses ``cluster.client_vms[i]``; its working set is
        ``n_keys`` files under ``<dataset_prefix>/<tenant>/`` written (and
        cache-warmed) before measurement starts.  ``arm_faults=True``
        arms the cluster's fault injector at measurement start, so a
        configured :class:`~repro.faults.plan.FaultPlan` plays out *under
        load* and its damage lands in the SLO report.
        """
        if duration <= 0:
            raise ValueError(f"duration must be positive: {duration}")
        if len(cluster.client_vms) < len(self.tenants):
            raise ValueError(
                f"cluster has {len(cluster.client_vms)} client VMs for "
                f"{len(self.tenants)} tenants; build the topology with "
                f"clients={len(self.tenants)} (e.g. "
                f"paper_fig10(clients=N))")
        from repro.storage.content import PatternSource

        sim = cluster.sim
        clients = []
        paths: List[List[str]] = []
        for index, tenant in enumerate(self.tenants):
            vm = cluster.client_vms[index]
            clients.append(cluster.clients.get(mode=mode, vm=vm))
            paths.append([f"{dataset_prefix}/{tenant.name}/k{key}"
                          for key in range(tenant.n_keys)])

        def load_datasets():
            for index, tenant in enumerate(self.tenants):
                for key, path in enumerate(paths[index]):
                    yield from cluster.write_dataset(
                        path,
                        PatternSource(tenant.request_bytes,
                                      seed=1000 + 31 * index + key))

        cluster.run(sim.process(load_datasets()))
        cluster.settle()

        def warm(index: int):
            for path in paths[index]:
                yield from clients[index].read_file(
                    path, self.tenants[index].request_bytes)

        cluster.run_all([sim.process(warm(i))
                         for i in range(len(self.tenants))])

        slos = self._make_slos()
        outstanding: List = []
        epoch = sim.now

        def request(index: int, slo: TenantSlo, key: int):
            arrival = sim.now
            yield from clients[index].read_file(
                paths[index][key], self.tenants[index].request_bytes)
            slo.record(arrival - epoch, sim.now - epoch)

        def drive(index: int, tenant: TenantSpec):
            rng_arrivals = self._stream("arrivals", tenant)
            rng_keys = self._stream("keys", tenant)
            keys = tenant.keys()
            slo = slos[tenant.name]
            clock = 0.0
            for arrival in tenant.arrivals().times(rng_arrivals, duration):
                yield sim.timeout(arrival - clock)
                clock = arrival
                slo.note_arrival()
                # Spawned, not awaited: the open loop never slows down
                # because the cluster is slow — that pressure is the point.
                outstanding.append(
                    sim.process(request(index, slo, keys.pick(rng_keys))))

        if arm_faults:
            cluster.faults.arm()
        drivers = [sim.process(drive(i, tenant))
                   for i, tenant in enumerate(self.tenants)]

        def whole_run():
            yield AllOf(sim, drivers)
            if outstanding:
                yield AllOf(sim, outstanding)

        cluster.run(sim.process(whole_run()))
        return SloReport.from_sinks(title, slos, duration)
