"""Tests for SummaryStats / percentile / report rendering."""

import pytest

from repro.metrics.report import Table, format_figure_series, improvement_pct, reduction_pct
from repro.metrics.stats import SummaryStats, percentile


# ----------------------------------------------------------------- percentile
def test_percentile_basics():
    samples = [1, 2, 3, 4, 5]
    assert percentile(samples, 0) == 1
    assert percentile(samples, 50) == 3
    assert percentile(samples, 100) == 5


def test_percentile_interpolates():
    assert percentile([1, 2], 50) == pytest.approx(1.5)
    assert percentile([0, 10], 25) == pytest.approx(2.5)


def test_percentile_single_sample():
    assert percentile([7], 99) == 7


def test_percentile_validation():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1], 101)


# --------------------------------------------------------------- SummaryStats
def test_summary_stats_accessors():
    stats = SummaryStats([2.0, 4.0, 6.0])
    assert stats.count == 3
    assert stats.mean == pytest.approx(4.0)
    assert stats.minimum == 2.0
    assert stats.maximum == 6.0
    assert stats.total == 12.0
    assert stats.median == 4.0


def test_summary_stats_stdev():
    stats = SummaryStats([2.0, 2.0, 2.0])
    assert stats.stdev == 0.0
    stats2 = SummaryStats([0.0, 4.0])
    assert stats2.stdev == pytest.approx(2.0)


def test_summary_stats_add_extend():
    stats = SummaryStats()
    stats.add(1.0)
    stats.extend([2.0, 3.0])
    assert len(stats) == 3
    assert stats.samples == (1.0, 2.0, 3.0)


def test_summary_stats_empty_raises():
    stats = SummaryStats()
    with pytest.raises(ValueError):
        _ = stats.mean


# --------------------------------------------------------------------- report
def test_table_renders_headers_and_rows():
    table = Table(["x", "y"], title="demo")
    table.add_row(1, 2.5)
    text = table.render()
    assert "demo" in text
    assert "x" in text and "y" in text
    assert "2.500" in text


def test_table_rejects_wrong_arity():
    table = Table(["a", "b"])
    with pytest.raises(ValueError):
        table.add_row(1)


def test_format_figure_series():
    text = format_figure_series(
        "Fig X", "size", ["64KB", "1MB"],
        {"vanilla": [10.0, 20.0], "vRead": [5.0, 10.0]}, unit="ms")
    assert "vanilla (ms)" in text
    assert "64KB" in text
    assert "20.000" in text


def test_improvement_and_reduction_pct():
    assert improvement_pct(100.0, 160.0) == pytest.approx(60.0)
    assert reduction_pct(100.0, 60.0) == pytest.approx(40.0)
    with pytest.raises(ValueError):
        improvement_pct(0.0, 10.0)
