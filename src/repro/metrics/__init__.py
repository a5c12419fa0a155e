"""Measurement infrastructure: CPU accounting, statistics, report rendering.

The paper's evaluation reports three kinds of quantities, all of which this
package measures directly from the simulation rather than estimating:

* per-component CPU utilization breakdowns (Figs 6-8, 12) via
  :class:`~repro.metrics.accounting.CpuAccounting`,
* latency/throughput distributions (Figs 2, 3, 9, 11, 13) via
  :class:`~repro.metrics.stats.SummaryStats`,
* tables/series formatted like the paper's via :mod:`repro.metrics.report`.

Streaming aggregation lives in :mod:`repro.metrics.sinks`: bounded-memory
:class:`MetricSink` accumulators (log-bucketed quantile sketch, windowed
counters, seeded reservoir) that merge deterministically across parallel
jobs — the open-loop load generator (:mod:`repro.load`) reports SLO tails
through them, and :class:`SummaryStats` is built on top.
"""

from repro.metrics.accounting import (
    CpuAccounting,
    FaultCounters,
    UtilizationBreakdown,
)
from repro.metrics.sinks import (
    EmptyMetricError,
    LogHistogram,
    MetricSink,
    Reservoir,
    WindowedCounter,
    sink_digest,
)
from repro.metrics.stats import SummaryStats, percentile
from repro.metrics.report import Table, format_figure_series
from repro.metrics.tracing import TraceEvent, Tracer

__all__ = [
    "CpuAccounting",
    "EmptyMetricError",
    "FaultCounters",
    "LogHistogram",
    "MetricSink",
    "Reservoir",
    "SummaryStats",
    "Table",
    "TraceEvent",
    "Tracer",
    "UtilizationBreakdown",
    "WindowedCounter",
    "format_figure_series",
    "percentile",
    "sink_digest",
]
