"""Extension experiment: open-loop load sweep with streaming SLO metrics.

Multi-tenant client VMs drive seeded open-loop (bursty by default)
arrivals against a shared datanode, sweeping the per-tenant arrival
rate.  Each ``(mode, health, rate)`` sweep point simulates its own
cluster; the report contrasts vanilla vs vRead tail latency and
SLO-violation time, both *healthy* and under a *chaos* fault plan (a
host page-cache drop followed by a disk latency spike, armed at
measurement start) — the SLO degradation curve the paper's throughput
tables cannot show.

Every point streams its requests through the
:class:`~repro.load.slo.TenantSlo` sinks, so memory stays bounded no
matter how far the rate axis is pushed, and every report row carries a
latency-sketch digest, which is what the ``--jobs N`` byte-identity
gates compare.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.cluster import VirtualHadoopCluster, paper_fig10
from repro.faults import (DiskLatencySpike, FaultPlan, GuestCacheDrop,
                          HostCacheDrop)
from repro.load import LoadGenerator, SloReport, default_tenants
from repro.metrics.report import Table

MODES = ("vanilla", "vRead")
HEALTH = ("healthy", "chaos")


def chaos_plan(duration: float) -> FaultPlan:
    """The under-load fault schedule (times relative to arming).

    A host+guest page-cache drop a quarter of the way in turns the warm
    working set cold; halfway through, a second drop lands together with
    a disk latency spike, so the re-warming reads pay the full 8x disk
    penalty regardless of how quickly the first drop was absorbed.  All
    faults target the first host — where the shared datanode lives in
    the ``paper_fig10`` layout — and its datanode VM's guest cache.
    """
    return (FaultPlan()
            .at(0.25 * duration, HostCacheDrop())
            .at(0.25 * duration, GuestCacheDrop("dn1"))
            .at(0.50 * duration, HostCacheDrop())
            .at(0.50 * duration, GuestCacheDrop("dn1"))
            .at(0.50 * duration,
                DiskLatencySpike(factor=8.0, duration=0.25 * duration)))


def _key(mode: str, health: str, x: float) -> str:
    return f"{mode}/{health}@{x:g}"


@dataclass(frozen=True)
class LoadSweepResult:
    """SLO curves over a swept axis, one :class:`SloReport` per point."""

    figure: str
    title: str
    x_label: str
    x_values: List[float]
    #: ``"mode/health@x"`` -> the point's full SLO report.
    reports: Dict[str, SloReport] = field(default_factory=dict)
    notes: str = ""

    def report(self, mode: str, health: str, x: float) -> SloReport:
        key = _key(mode, health, x)
        try:
            return self.reports[key]
        except KeyError:
            raise KeyError(f"no sweep point {key!r}; have "
                           f"{sorted(self.reports)}")

    def p99_series(self, mode: str, health: str = "healthy") -> List[float]:
        """Worst-tenant p99 latency (ms) along the swept axis."""
        return [self.report(mode, health, x).worst_p99_ms()
                for x in self.x_values]

    def violation_series(self, mode: str,
                         health: str = "healthy") -> List[float]:
        """Mean SLO-violation time fraction along the swept axis."""
        return [self.report(mode, health, x).violation_time_fraction()
                for x in self.x_values]

    def goodput_series(self, mode: str,
                       health: str = "healthy") -> List[float]:
        """Aggregate goodput (requests/s) along the swept axis."""
        return [self.report(mode, health, x).total_goodput_rps()
                for x in self.x_values]

    def digest(self) -> str:
        """Combined sketch digest over every sweep point (determinism)."""
        feed = ";".join(f"{key}:{self.reports[key].digest()}"
                        for key in sorted(self.reports))
        return hashlib.sha256(feed.encode("ascii")).hexdigest()

    def render(self) -> str:
        healths = sorted({key.split("/", 1)[1].split("@", 1)[0]
                          for key in self.reports})
        blocks = []
        for health in healths:
            table = Table([self.x_label]
                          + [f"{mode} p99" for mode in MODES]
                          + [f"{mode} viol" for mode in MODES],
                          title=f"{self.title} — {health}")
            for x in self.x_values:
                cells: List[str] = [f"{x:g}"]
                for mode in MODES:
                    report = self.report(mode, health, x)
                    cells.append(f"{report.worst_p99_ms():.2f}ms")
                for mode in MODES:
                    report = self.report(mode, health, x)
                    fraction = report.violation_time_fraction()
                    cells.append(f"{fraction * 100:.1f}%")
                table.add_row(*cells)
            blocks.append(table.render())
        text = "\n\n".join(blocks)
        if self.notes:
            text += f"\n  note: {self.notes}"
        return text


def _measure(vread: bool, chaos: bool, rate: float, seed: int,
             duration: float, n_tenants: int, request_bytes: int,
             deadline_seconds: float, arrival_kind: str) -> SloReport:
    """One sweep point: its own cluster, generator and SLO report."""
    cluster = VirtualHadoopCluster(
        block_size=max(request_bytes, 1 << 20),
        vread=vread,
        topology=paper_fig10(clients=n_tenants),
        seed=seed,
        faults=chaos_plan(duration) if chaos else None)
    tenants = default_tenants(n_tenants, rate,
                              deadline_seconds=deadline_seconds,
                              arrival_kind=arrival_kind,
                              request_bytes=request_bytes,
                              n_keys=4)
    generator = LoadGenerator(tenants, seed=seed)
    mode = "vRead" if vread else "vanilla"
    health = "chaos" if chaos else "healthy"
    return generator.run_cluster(
        cluster, duration, arm_faults=chaos,
        title=f"{mode} {health} @ {rate:g} req/s/tenant")


def points(rates: Sequence[float] = (20.0, 60.0, 120.0),
           **_ignored) -> List[Tuple[str, str, float]]:
    """Every (mode, health, rate) point."""
    return [(mode, health, rate)
            for mode in MODES for health in HEALTH for rate in rates]


def run_point(point: Tuple[str, str, float], seed: int,
              duration: float = 2.5, n_tenants: int = 2,
              request_bytes: int = 256 << 10, deadline_ms: float = 2.0,
              arrival_kind: str = "bursty", **_ignored) -> SloReport:
    """Measure one point with the derived seed."""
    mode, health, rate = point
    return _measure(mode == "vRead", health == "chaos", rate, seed,
                    duration, n_tenants, request_bytes, deadline_ms * 1e-3,
                    arrival_kind)


def assemble(values: Dict[Tuple[str, str, float], SloReport],
             rates: Sequence[float] = (20.0, 60.0, 120.0),
             duration: float = 2.5, n_tenants: int = 2,
             deadline_ms: float = 2.0,
             arrival_kind: str = "bursty", **_ignored) -> LoadSweepResult:
    """Build the sweep result from measured ``(mode, health, rate)`` points."""
    return LoadSweepResult(
        figure="Extension (load sweep)",
        title="Open-loop SLO sweep: worst-tenant p99 / violation time",
        x_label="req/s/tenant",
        x_values=list(rates),
        reports={_key(mode, health, rate): values[(mode, health, rate)]
                 for mode in MODES for health in HEALTH for rate in rates},
        notes=(f"{n_tenants} tenants, {arrival_kind} arrivals, "
               f"{duration:g}s window, {deadline_ms:g}ms deadline; chaos = "
               f"cache drop + 8x disk latency spike under load"))
