"""Streaming SLO accounting: per-tenant sinks and the final report.

:class:`TenantSlo` is the bundle of metric sinks one tenant streams its
request outcomes into — a :class:`~repro.metrics.sinks.LogHistogram` for
latency quantiles and two :class:`~repro.metrics.sinks.WindowedCounter`
instances (completions and deadline misses) for goodput and violation
timelines.  Memory is bounded regardless of request count, which is what
lets the open-loop generator run millions of samples with flat memory
(``tests/load/test_slo.py`` gates this; ``benchmarks/e2e`` tracks
``peak_rss_mb`` end to end).

:class:`SloReport` reduces the sinks to a plain dataclass of primitives:
per-tenant p50/p99/p99.9 latency, goodput, and the SLO-violation time
fraction (the share of fixed windows containing at least one deadline
miss — the Dynamo-style "how much of the day were we out of SLA" view).
Being primitives-only, a report serializes through the runner's
``canonical_json`` unchanged, and per-tenant sketch digests ride along so
determinism gates can compare ``--jobs N`` topologies byte-for-byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping

from repro.metrics.report import Table
from repro.metrics.sinks import EmptyMetricError, LogHistogram, WindowedCounter

__all__ = ["SloReport", "TenantSlo", "TenantSloSummary"]


class TenantSlo:
    """One tenant's streaming SLO sinks (latency sketch + windows)."""

    __slots__ = ("name", "deadline_seconds", "latency", "completions",
                 "misses", "arrivals", "_total_latency")

    def __init__(self, name: str, deadline_seconds: float,
                 window_seconds: float = 0.5,
                 bins_per_decade: int = 100):
        if deadline_seconds <= 0:
            raise ValueError(
                f"deadline must be positive: {deadline_seconds}")
        self.name = name
        self.deadline_seconds = deadline_seconds
        self.latency = LogHistogram(bins_per_decade=bins_per_decade)
        self.completions = WindowedCounter(window_seconds)
        self.misses = WindowedCounter(window_seconds)
        self.arrivals = 0
        self._total_latency = 0.0

    def note_arrival(self) -> None:
        self.arrivals += 1

    def record(self, arrival: float, completion: float) -> None:
        """Stream one finished request (times in sim seconds)."""
        latency = completion - arrival
        self.latency.observe(latency)
        self._total_latency += latency
        self.completions.observe(completion)
        if latency > self.deadline_seconds:
            self.misses.observe(completion)

    def summarize(self, duration: float) -> "TenantSloSummary":
        """Reduce the sinks to the report row for this tenant."""
        count = self.latency.count
        if count == 0:
            raise EmptyMetricError(f"TenantSlo[{self.name}].summarize")
        n_windows = max(1, math.ceil(duration
                                     / self.completions.window_seconds))
        violated = sum(1 for _, misses in self.misses.windows() if misses)
        goodput = (self.completions.count - self.misses.count) / duration
        to_ms = 1e3
        return TenantSloSummary(
            tenant=self.name,
            arrivals=self.arrivals,
            completions=count,
            deadline_ms=self.deadline_seconds * to_ms,
            mean_ms=self._total_latency / count * to_ms,
            p50_ms=self.latency.quantile(50) * to_ms,
            p99_ms=self.latency.quantile(99) * to_ms,
            p99_9_ms=self.latency.quantile(99.9) * to_ms,
            max_ms=self.latency.maximum * to_ms,
            goodput_rps=goodput,
            miss_count=self.misses.count,
            violation_time_fraction=violated / n_windows,
            latency_digest=self.latency.digest(),
        )


@dataclass(frozen=True)
class TenantSloSummary:
    """One tenant's reduced SLO row (primitives only: serializes as-is)."""

    tenant: str
    arrivals: int
    completions: int
    deadline_ms: float
    mean_ms: float
    p50_ms: float
    p99_ms: float
    p99_9_ms: float
    max_ms: float
    goodput_rps: float
    miss_count: int
    violation_time_fraction: float
    #: SHA-256 of the latency sketch state (determinism gates).
    latency_digest: str


@dataclass(frozen=True)
class SloReport:
    """The open-loop run's SLO outcome, one row per tenant."""

    title: str
    duration_seconds: float
    window_seconds: float
    tenants: Dict[str, TenantSloSummary] = field(default_factory=dict)
    notes: str = ""

    @classmethod
    def from_sinks(cls, title: str, slos: Mapping[str, TenantSlo],
                   duration: float, notes: str = "") -> "SloReport":
        if not slos:
            raise EmptyMetricError("SloReport.from_sinks")
        window = next(iter(slos.values())).completions.window_seconds
        return cls(title=title,
                   duration_seconds=duration,
                   window_seconds=window,
                   tenants={name: slo.summarize(duration)
                            for name, slo in sorted(slos.items())},
                   notes=notes)

    # ------------------------------------------------------------- accessors
    def tenant(self, name: str) -> TenantSloSummary:
        try:
            return self.tenants[name]
        except KeyError:
            raise KeyError(f"no tenant {name!r}; report covers "
                           f"{sorted(self.tenants)}")

    def worst_p99_ms(self) -> float:
        return max(row.p99_ms for row in self.tenants.values())

    def total_goodput_rps(self) -> float:
        return sum(row.goodput_rps for row in self.tenants.values())

    def violation_time_fraction(self) -> float:
        """Mean per-tenant violation fraction (the headline SLO number)."""
        rows = list(self.tenants.values())
        return sum(row.violation_time_fraction for row in rows) / len(rows)

    def digest(self) -> str:
        """Combined per-tenant sketch digest (stable across job counts)."""
        import hashlib
        feed = ";".join(f"{name}:{row.latency_digest}"
                        for name, row in sorted(self.tenants.items()))
        return hashlib.sha256(feed.encode("ascii")).hexdigest()

    def render(self) -> str:
        table = Table(["tenant", "reqs", "p50", "p99", "p99.9", "max",
                       "goodput/s", "misses", "viol.time"],
                      title=self.title)
        for name in sorted(self.tenants):
            row = self.tenants[name]
            table.add_row(
                name, str(row.completions),
                f"{row.p50_ms:.2f}ms", f"{row.p99_ms:.2f}ms",
                f"{row.p99_9_ms:.2f}ms", f"{row.max_ms:.2f}ms",
                f"{row.goodput_rps:.1f}", str(row.miss_count),
                f"{row.violation_time_fraction * 100:.1f}%")
        text = table.render()
        text += (f"\n  open-loop window: {self.duration_seconds:g}s, "
                 f"violation windows of {self.window_seconds:g}s, "
                 f"deadline {next(iter(self.tenants.values())).deadline_ms:g}ms")
        if self.notes:
            text += f"\n  note: {self.notes}"
        return text
