"""ASCII rendering of tables and figure series.

Benchmarks use these helpers to print the same rows/series the paper
reports, so ``pytest benchmarks/ --benchmark-only`` output can be compared
to the paper side by side.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence


class Table:
    """A simple fixed-width ASCII table."""

    def __init__(self, headers: Sequence[str], title: Optional[str] = None):
        if not headers:
            raise ValueError("table needs at least one column")
        self.title = title
        self.headers = list(headers)
        self.rows: List[List[str]] = []

    def add_row(self, *cells) -> None:
        if len(cells) != len(self.headers):
            raise ValueError(
                f"expected {len(self.headers)} cells, got {len(cells)}")
        self.rows.append([_fmt(cell) for cell in cells])

    def render(self) -> str:
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = []
        if self.title:
            lines.append(self.title)
        sep = "-+-".join("-" * w for w in widths)
        lines.append(" | ".join(h.ljust(w) for h, w in zip(self.headers, widths)))
        lines.append(sep)
        for row in self.rows:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def _fmt(cell) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell)


def format_figure_series(title: str,
                         x_label: str,
                         x_values: Sequence,
                         series: Mapping[str, Sequence[float]],
                         unit: str = "") -> str:
    """Render a figure as one row per x-value with one column per series.

    Mirrors reading values off a grouped-bar chart: for Fig 9 this prints
    request sizes down the side and vanilla/vRead x 2vms/4vms across.
    """
    headers = [x_label] + [f"{name}{f' ({unit})' if unit else ''}"
                           for name in series]
    table = Table(headers, title=title)
    for i, x in enumerate(x_values):
        table.add_row(x, *[values[i] for values in series.values()])
    return table.render()


class GroupedTotals:
    """Per-group sums of measurements (e.g. per rack, per host).

    Multi-rack sweeps record one sample per (rack, host) measurement
    point; ``totals()`` rolls them up per group and ``by_host()`` per
    host.  Insertion order of groups is preserved so deterministic runs
    report identically::

        agg = GroupedTotals()
        agg.add("rack1", 312.0, host="host1")
        agg.add("rack1", 298.5, host="host2")
        agg.add("rack2", 144.8, host="host3")
        agg.totals()   # {"rack1": 610.5, "rack2": 144.8}
    """

    def __init__(self):
        #: group -> list of (host, value) samples, insertion-ordered.
        self._samples: dict = {}

    def add(self, group: str, value: float,
            host: Optional[str] = None) -> None:
        """Record one sample for ``group`` (optionally tagged by host)."""
        self._samples.setdefault(group, []).append((host, value))

    def totals(self) -> "dict[str, float]":
        """Sum of samples per group, insertion-ordered."""
        return {group: sum(v for _, v in samples)
                for group, samples in self._samples.items()}

    def by_host(self) -> "dict[str, float]":
        """Sum of samples per host tag across all groups."""
        out: dict = {}
        for samples in self._samples.values():
            for host, value in samples:
                if host is not None:
                    out[host] = out.get(host, 0.0) + value
        return out
