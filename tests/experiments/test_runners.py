"""Smoke tests for every experiment runner at tiny scale.

The direction of every result is a paper claim, checked at the quick
profile by ``test_claims.py``; these tests verify that the runners honor
their non-default parameters, and their structure, determinism and error
paths, quickly enough for the unit suite.
"""

import pytest

from repro.experiments import (
    ablation_direct_read,
    ablation_packet_size,
    ablation_ring,
    ablation_transport,
    fig02_motivation_delay,
    fig03_iothread_sync,
    fig09_vread_delay,
    runner,
    table2_hbase,
    table3_hive_sqoop,
)
from repro.experiments.cpu_breakdowns import run_fig06
from repro.experiments.dfsio_sweep import DfsioCell, run_cell

TINY = 4 << 20  # 4MB datasets keep these tests fast


def test_fig02_structure():
    result = fig02_motivation_delay.run(file_bytes=TINY,
                                        request_sizes=(64 * 1024, 1 << 20))
    assert result.no_cache.x_values == ["64KB", "1MB"]
    for figure in (result.no_cache, result.cache):
        assert set(figure.series) == {"inter-VM", "local"}
        assert all(len(values) == 2 for values in figure.series.values())


def test_fig03_structure():
    result = fig03_iothread_sync.run(request_sizes=(32 * 1024,),
                                     duration=0.05)
    assert set(result.series) == {"2vms", "4vms"}
    assert result.x_values == ["32KB"]


def test_fig06_renders_both_panels():
    result = run_fig06(file_bytes=TINY)
    rendered = result.render()
    assert "Fig 6(a)" in rendered and "Fig 6(b)" in rendered


def test_fig09_reductions():
    result = fig09_vread_delay.run(file_bytes=TINY,
                                   request_sizes=(1 << 20,))
    assert result.cache.x_values == ["1MB"]
    vanilla = result.cache.value("vanilla-4vms", "1MB")
    vread = result.cache.value("vRead-4vms", "1MB")
    assert (result.reduction_pct("4vms", True, "1MB")
            == (vanilla - vread) / vanilla * 100.0)


def test_dfsio_cell_and_cache():
    cell = run_cell("colocated", 2.0e9, 2, "vanilla", file_bytes=TINY,
                    n_files=1)
    assert isinstance(cell, DfsioCell)
    assert cell.read_mbps > 0 and cell.reread_mbps > cell.read_mbps
    assert cell.write_mbps > 0 and cell.read_cpu_ms > 0
    # Nothing is cached: a second call measures a fresh cluster and
    # gives an equal cell.
    again = run_cell("colocated", 2.0e9, 2, "vanilla", file_bytes=TINY,
                     n_files=1)
    assert again == cell and again is not cell


def test_dfsio_unknown_scenario_rejected():
    with pytest.raises(ValueError):
        run_cell("weird", 2.0e9, 2, "vanilla", file_bytes=TINY, n_files=1)


def test_fig11_tiny_sweep():
    result = runner.run_experiment("fig11", params={
        "frequencies": (2.0e9,), "file_bytes": TINY, "n_files": 1})
    assert len(result.panels) == 6
    assert all(panel.x_values == ["2.0GHz"]
               for panel in result.panels.values())


def test_fig13_one_scenario():
    result = runner.run_experiment("fig13", params={
        "scenarios": ("colocated",), "file_bytes": TINY, "n_files": 1})
    assert result.x_values == ["co-located"]
    assert {name: len(values) for name, values in result.series.items()} \
        == {"vanilla": 1, "vRead": 1}


def test_table2_tiny():
    result = table2_hbase.run(n_rows=2048, rows_per_region=1024)
    assert tuple(result.rows) == table2_hbase.OPERATIONS
    assert "Table 2" in result.render()


def test_table3_tiny():
    result = table3_hive_sqoop.run(n_rows=16_384, rows_per_file=8_192)
    assert "Table 3" in result.render()


def test_ablation_direct_read_tiny():
    result = ablation_direct_read.run(file_bytes=TINY)
    assert set(result.modes) == {"mounted host FS", "bypass host FS"}


def test_ablation_transport_tiny():
    result = ablation_transport.run(file_bytes=TINY)
    assert (result.cpu_ratio
            == result.transports["tcp"][2] / result.transports["rdma"][2])


def test_ablation_ring_tiny():
    result = ablation_ring.run(file_bytes=TINY,
                               chunk_sizes=(64 * 1024, 1 << 20),
                               ring_slots=(1024,))
    assert list(result.cells) == [(1024, 64 * 1024), (1024, 1 << 20)]


def test_ablation_packet_size_tiny():
    result = ablation_packet_size.run(file_bytes=TINY,
                                      packet_sizes=(16 * 1024, 256 * 1024))
    assert list(result.vanilla) == [16 * 1024, 256 * 1024]


def test_experiments_are_deterministic():
    """Identical parameters -> bit-identical results (seeded streams)."""
    first = fig02_motivation_delay.run(file_bytes=TINY,
                                       request_sizes=(1 << 20,))
    second = fig02_motivation_delay.run(file_bytes=TINY,
                                        request_sizes=(1 << 20,))
    assert first.no_cache.series == second.no_cache.series
    assert first.cache.series == second.cache.series
