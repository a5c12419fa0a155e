"""Measurement infrastructure: CPU accounting, SLO sinks, report rendering.

The paper's evaluation reports a few kinds of quantities, all of which
this package measures directly from the simulation rather than
estimating:

* per-component CPU utilization breakdowns (Figs 6-8, 12) via
  :class:`~repro.metrics.accounting.CpuAccounting`,
* tables/series formatted like the paper's via :mod:`repro.metrics.report`.

The delay figures (Figs 2, 9) plot a mean per-request delay, which
:class:`~repro.workloads.filereader.FileReadBenchmark` keeps as a count
and a running total.  The open-loop load generator (:mod:`repro.load`)
streams request outcomes into the two bounded-memory sinks of
:mod:`repro.metrics.sinks`: a log-bucketed quantile sketch
(:class:`LogHistogram`) and per-window miss counts
(:class:`WindowedCounter`).
"""

from repro.metrics.accounting import (
    CpuAccounting,
    FaultCounters,
    UtilizationBreakdown,
)
from repro.metrics.sinks import EmptyMetricError, LogHistogram, WindowedCounter
from repro.metrics.report import Table, format_figure_series
from repro.metrics.tracing import TraceEvent, Tracer

__all__ = [
    "CpuAccounting",
    "EmptyMetricError",
    "FaultCounters",
    "LogHistogram",
    "Table",
    "TraceEvent",
    "Tracer",
    "UtilizationBreakdown",
    "WindowedCounter",
    "format_figure_series",
]
