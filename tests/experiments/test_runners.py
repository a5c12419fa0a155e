"""Smoke + shape tests for every experiment runner at tiny scale.

The benchmarks exercise the full-size shape checks; these tests verify the
runners' structure, determinism, and basic directionality quickly enough
for the unit suite.
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


def test_fig02_structure_and_direction():
    result = fig02_motivation_delay.run(file_bytes=TINY,
                                        request_sizes=(64 * 1024, 1 << 20))
    assert result.no_cache.x_values == ["64KB", "1MB"]
    for figure in (result.no_cache, result.cache):
        assert set(figure.series) == {"inter-VM", "local"}
        for i in range(2):
            assert figure.series["inter-VM"][i] > figure.series["local"][i]


def test_fig03_structure():
    result = fig03_iothread_sync.run(request_sizes=(32 * 1024,),
                                     duration=0.05)
    assert set(result.series) == {"2vms", "4vms"}
    assert result.series["4vms"][0] < result.series["2vms"][0]


def test_fig06_savings_positive():
    result = run_fig06(file_bytes=TINY)
    assert result.client_saving_pct() > 0
    assert result.serving_saving_pct() > 0
    rendered = result.render()
    assert "Fig 6(a)" in rendered and "Fig 6(b)" in rendered


def test_fig09_reductions():
    result = fig09_vread_delay.run(file_bytes=TINY,
                                   request_sizes=(1 << 20,))
    assert result.reduction_pct("2vms", False, "1MB") > 0
    assert result.reduction_pct("4vms", True, "1MB") > 0


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
    assert result.improvement_pct("colocated", "read", "2.0GHz", 2) > 0


def test_fig13_negligible_overhead():
    result = runner.run_experiment("fig13", params={
        "scenarios": ("colocated",), "file_bytes": TINY, "n_files": 1})
    vanilla = result.series["vanilla"][0]
    vread = result.series["vRead"][0]
    assert abs(vanilla - vread) / vanilla < 0.05


def test_table2_tiny():
    result = table2_hbase.run(n_rows=2048, rows_per_region=1024)
    for operation in table2_hbase.OPERATIONS:
        assert result.improvement_pct(operation) > 0
    assert "Table 2" in result.render()


def test_table3_tiny():
    result = table3_hive_sqoop.run(n_rows=16_384, rows_per_file=8_192)
    assert result.hive_reduction_pct > 0
    assert result.sqoop_reduction_pct > 0
    assert "Table 3" in result.render()


def test_ablation_direct_read_tiny():
    result = ablation_direct_read.run(file_bytes=TINY)
    assert result.warm_penalty_pct > 30
    assert result.modes["bypass host FS"][2] == 0  # no refreshes


def test_ablation_transport_tiny():
    result = ablation_transport.run(file_bytes=TINY)
    assert result.cpu_ratio > 1.0


def test_ablation_ring_tiny():
    result = ablation_ring.run(file_bytes=TINY,
                               chunk_sizes=(64 * 1024, 1 << 20),
                               ring_slots=(1024,))
    assert len(result.cells) == 2
    assert all(v > 0 for v in result.cells.values())


def test_ablation_packet_size_tiny():
    result = ablation_packet_size.run(file_bytes=TINY,
                                      packet_sizes=(16 * 1024, 256 * 1024))
    assert result.vanilla[256 * 1024] > result.vanilla[16 * 1024]


def test_experiments_are_deterministic():
    """Identical parameters -> bit-identical results (seeded streams)."""
    first = fig02_motivation_delay.run(file_bytes=TINY,
                                       request_sizes=(1 << 20,))
    second = fig02_motivation_delay.run(file_bytes=TINY,
                                        request_sizes=(1 << 20,))
    assert first.no_cache.series == second.no_cache.series
    assert first.cache.series == second.cache.series
