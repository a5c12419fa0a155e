"""Tests for report rendering (tables and figure series)."""

import pytest

from repro.metrics.report import Table, format_figure_series


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
