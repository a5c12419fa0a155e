"""Shared experiment machinery: results, measurement windows, breakdowns."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from repro.cluster import VirtualHadoopCluster
from repro.metrics.accounting import UtilizationBreakdown
from repro.metrics.report import Table, format_figure_series


@dataclass
class FigureResult:
    """A figure's worth of series, renderable like the paper's chart."""

    figure: str
    title: str
    x_label: str
    x_values: List
    series: Dict[str, List[float]]
    unit: str = ""
    notes: str = ""

    def render(self) -> str:
        """Render the result as paper-style ASCII tables."""
        text = format_figure_series(f"{self.figure}: {self.title}",
                                    self.x_label, self.x_values,
                                    self.series, unit=self.unit)
        if self.notes:
            text += f"\n  note: {self.notes}"
        return text

    def value(self, series: str, x) -> float:
        """Look up one series value by x-position.

        Unknown names raise errors that list what *is* available, so a
        typo'd lookup in an experiment script reads as a diagnosis rather
        than a bare ``KeyError: 'vRaed'``.
        """
        if series not in self.series:
            raise KeyError(
                f"{self.figure} has no series {series!r}; available series: "
                f"{sorted(self.series)}")
        if x not in self.x_values:
            raise ValueError(
                f"{self.figure} series {series!r} has no x-value {x!r}; "
                f"available {self.x_label} values: {self.x_values}")
        return self.series[series][self.x_values.index(x)]


@dataclass
class BreakdownResult:
    """A CPU-utilization breakdown figure (paper Figs 6-8)."""

    figure: str
    title: str
    #: bar label -> breakdown (e.g. 'vRead' / 'vanilla').
    bars: Dict[str, UtilizationBreakdown]
    notes: str = ""

    def render(self) -> str:
        """Render the result as paper-style ASCII tables."""
        categories: List[str] = []
        for breakdown in self.bars.values():
            for name, _ in breakdown.rows():
                if name not in categories:
                    categories.append(name)
        table = Table(["bar"] + categories + ["total"],
                      title=f"{self.figure}: {self.title} (CPU utilization)")
        for label, breakdown in self.bars.items():
            cells = [f"{breakdown.get(c) * 100:.1f}%" for c in categories]
            table.add_row(label, *cells, f"{breakdown.total * 100:.1f}%")
        text = table.render()
        if self.notes:
            text += f"\n  note: {self.notes}"
        return text


class BreakdownViews:
    """Measure per-component CPU breakdowns over a window.

    Views are named groups of threads (the paper's "client side",
    "datanode side", "vRead-daemon" bars).
    """

    def __init__(self, cluster: VirtualHadoopCluster):
        self.cluster = cluster
        self._marks = None
        self._start = None

    def mark(self) -> None:
        """Start a measurement window (snapshot all hosts' accounting)."""
        self._marks = [host.accounting.snapshot()
                       for host in self.cluster.hosts]
        self._start = self.cluster.sim.now

    def collect(self, views: Mapping[str, Sequence[str]]
                ) -> Dict[str, UtilizationBreakdown]:
        """Return one breakdown per view over the window since mark()."""
        if self._marks is None:
            raise RuntimeError("mark() must be called before collect()")
        elapsed = self.cluster.sim.now - self._start
        out = {}
        for name, thread_names in views.items():
            busy: Dict[str, float] = {}
            for host, mark in zip(self.cluster.hosts, self._marks):
                window = host.accounting.since(mark)
                for category, seconds in window.by_category(
                        threads=thread_names).items():
                    busy[category] = busy.get(category, 0.0) + seconds
            # Normalized per core-equivalent, like the paper's stacked bars
            # (a component view spans a handful of threads, not the host).
            out[name] = UtilizationBreakdown(busy, elapsed, cores=1)
        return out


# --------------------------------------------------------------- thread views
def client_view(cluster: VirtualHadoopCluster) -> List[str]:
    """Threads of the client VM (vCPU + its I/O threads)."""
    return list(cluster.client_vm.thread_names())


def datanode_view(cluster: VirtualHadoopCluster, index: int = 0) -> List[str]:
    """Threads of a datanode VM."""
    return list(cluster.datanode_vms[index].thread_names())


def daemon_view(cluster: VirtualHadoopCluster,
                host_index: Optional[int] = None) -> List[str]:
    """vRead daemon threads (per-VM daemon + per-host services).

    With ``host_index`` the view is restricted to one host — e.g. the
    requester-side daemons belong on the paper's *client* chart while the
    remote host's service belongs on the *datanode-side* chart (Fig 7).
    """
    hosts = (cluster.hosts if host_index is None
             else [cluster.hosts[host_index]])
    names = []
    for host in hosts:
        names.append(f"{host.name}.vread-hostd")
        for vm in host.vms:
            names.append(f"{host.name}.vread-daemon.{vm.name}")
    return names


# ------------------------------------------------------------------- helpers
def load_dataset(cluster: VirtualHadoopCluster, path: str, source,
                 favored=None, spread: bool = False) -> None:
    """Write a dataset through the vanilla path and settle refreshes."""
    def proc():
        yield from cluster.write_dataset(path, source, favored=favored,
                                         spread=spread)

    cluster.run(cluster.sim.process(proc()))
    if not cluster.lookbusy:
        cluster.settle()


def pct_improvement(baseline: float, improved: float) -> float:
    """Percentage improvement of ``improved`` over ``baseline``.

    A zero (or denormal-tiny) baseline has no meaningful percentage and
    would silently return ``inf``/``nan`` into a report table; raise a
    diagnosis instead so the caller fixes the measurement.
    """
    if abs(baseline) < 1e-12:
        raise ValueError(
            f"pct_improvement: baseline {baseline!r} is zero or near zero; "
            f"a percentage improvement over it is undefined "
            f"(improved={improved!r})")
    return (improved - baseline) / baseline * 100.0
