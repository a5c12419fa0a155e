"""Figure 12 bench: TestDFSIO CPU running time, all six panels.

Shape checks: vRead consumes less client CPU than vanilla in every cell
(the benchmark's point: the throughput gains of Fig 11 come *with* CPU
savings, not at their expense), and CPU time shrinks as frequency rises.
"""

from repro.experiments.runner import run_experiment

FILE_BYTES = 32 << 20


def test_fig12_dfsio_cputime(benchmark, report, cells):
    result = benchmark.pedantic(
        lambda: run_experiment("fig12", params={"file_bytes": FILE_BYTES},
                               cells=cells),
        rounds=1, iterations=1)
    saving = result.cpu_saving_pct("colocated", "read", "2.0GHz", 2)
    report(result.render()
           + f"\n  co-located read CPU saving @2.0GHz 2vms: {saving:.1f}%")

    for (scenario, phase), panel in result.panels.items():
        for freq in panel.x_values:
            for vms in (2, 4):
                vanilla = panel.value(f"vanilla-{vms}vms", freq)
                vread = panel.value(f"vRead-{vms}vms", freq)
                assert vread < vanilla, (
                    f"{scenario}/{phase}/{freq}/{vms}vms: vRead must save CPU")
        # Same cycles at a higher clock take less time.
        vanilla_series = panel.series["vanilla-2vms"]
        assert vanilla_series[0] > vanilla_series[-1]

    assert saving > 20.0
