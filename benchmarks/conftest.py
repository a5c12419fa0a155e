"""Benchmark-suite plumbing: collect rendered tables, print them at the end.

Each benchmark regenerates one of the paper's tables/figures and records the
rendered rows via the ``report`` fixture; the terminal-summary hook prints
everything after the pytest-benchmark timing table, so
``pytest benchmarks/ --benchmark-only`` output can be compared to the paper
directly.
"""

import pytest

_reports = []


@pytest.fixture(scope="session")
def cells():
    """One table of measured sweep points for the whole bench session:
    Figs 11-13 share their TestDFSIO cells, so each cell runs once."""
    return {}


@pytest.fixture
def report():
    """Record a rendered figure/table for the end-of-run summary."""

    def _record(text: str) -> None:
        _reports.append(text)

    return _record


def pytest_terminal_summary(terminalreporter):
    if not _reports:
        return
    terminalreporter.write_sep("=", "reproduced tables and figures")
    for text in _reports:
        terminalreporter.write_line("")
        for line in text.splitlines():
            terminalreporter.write_line(line)
