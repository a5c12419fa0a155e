"""Extension experiment: SLO behaviour as the tenant population grows.

Holds the per-tenant open-loop rate fixed and sweeps the number of
tenant client VMs sharing the ``paper_fig10`` testbed.  With every added
tenant the quad-core host and the shared datanode absorb another
independent arrival stream, so the worst-tenant p99 and the
SLO-violation time fraction climb — much earlier for the vanilla path,
whose per-byte CPU appetite is what vRead exists to remove.

Reuses :class:`~repro.experiments.load_sweep.LoadSweepResult` with the
tenant count as the swept axis (all points "healthy"; chaos curves live
in the ``load-sweep`` experiment).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.cluster import VirtualHadoopCluster, paper_fig10
from repro.experiments.load_sweep import LoadSweepResult, _key
from repro.load import LoadGenerator, SloReport, default_tenants

MODES = ("vanilla", "vRead")


def _measure(vread: bool, n_tenants: int, seed: int, duration: float,
             rate: float, request_bytes: int, deadline_seconds: float,
             arrival_kind: str) -> SloReport:
    """One sweep point: ``n_tenants`` client VMs on a fresh cluster."""
    cluster = VirtualHadoopCluster(
        block_size=max(request_bytes, 1 << 20),
        vread=vread,
        topology=paper_fig10(clients=n_tenants),
        seed=seed)
    tenants = default_tenants(n_tenants, rate,
                              deadline_seconds=deadline_seconds,
                              arrival_kind=arrival_kind,
                              request_bytes=request_bytes,
                              n_keys=4)
    generator = LoadGenerator(tenants, seed=seed)
    mode = "vRead" if vread else "vanilla"
    return generator.run_cluster(
        cluster, duration,
        title=f"{mode} with {n_tenants} tenants @ {rate:g} req/s each")


def points(tenant_counts: Sequence[int] = (1, 2, 4),
           **_ignored) -> List[Tuple[str, int]]:
    """Every (mode, tenant count) point."""
    return [(mode, n_tenants)
            for mode in MODES for n_tenants in tenant_counts]


def run_point(point: Tuple[str, int], seed: int, duration: float = 2.5,
              rate: float = 40.0, request_bytes: int = 256 << 10,
              deadline_ms: float = 2.0, arrival_kind: str = "bursty",
              **_ignored) -> SloReport:
    """Measure one point with the derived seed."""
    mode, n_tenants = point
    return _measure(mode == "vRead", n_tenants, seed, duration, rate,
                    request_bytes, deadline_ms * 1e-3, arrival_kind)


def assemble(values: Dict[Tuple[str, int], SloReport],
             tenant_counts: Sequence[int] = (1, 2, 4),
             rate: float = 40.0, duration: float = 2.5,
             deadline_ms: float = 2.0, arrival_kind: str = "bursty",
             **_ignored) -> LoadSweepResult:
    """Build the result from measured ``(mode, n_tenants)`` points."""
    return LoadSweepResult(
        figure="Extension (tenant scale-out)",
        title="Worst-tenant SLO vs tenant count",
        x_label="tenant VMs",
        x_values=[float(n) for n in tenant_counts],
        reports={_key(mode, "healthy", float(n)): values[(mode, n)]
                 for mode in MODES for n in tenant_counts},
        notes=(f"{rate:g} req/s/tenant, {arrival_kind} arrivals, "
               f"{duration:g}s window, {deadline_ms:g}ms deadline"))
