"""Figure 11 bench: TestDFSIO read/re-read throughput, all six panels.

Shape checks from the paper's text:
* vRead beats vanilla in every panel/frequency/VM-count cell;
* co-located read improvement grows as the CPU slows (~20% @3.2GHz ->
  ~41% @1.6GHz): the vanilla path is CPU-bound, vRead isn't;
* 4 background-loaded VMs depress vanilla throughput (up to ~22%) much
  more than vRead's;
* re-read improvements are far larger than cold-read improvements
  (up to 150% in the paper).
"""

from repro.experiments.runner import run_experiment

FILE_BYTES = 32 << 20


def test_fig11_dfsio_throughput(benchmark, report, cells):
    result = benchmark.pedantic(
        lambda: run_experiment("fig11", params={"file_bytes": FILE_BYTES},
                               cells=cells),
        rounds=1, iterations=1)
    lines = [result.render(), ""]
    lines.append(f"  co-located read improvement @3.2GHz 2vms: "
                 f"{result.improvement_pct('colocated', 'read', '3.2GHz', 2):.1f}%"
                 f" (paper ~20%)")
    lines.append(f"  co-located read improvement @1.6GHz 2vms: "
                 f"{result.improvement_pct('colocated', 'read', '1.6GHz', 2):.1f}%"
                 f" (paper ~41%)")
    report("\n".join(lines))

    # vRead wins every cell.
    for (scenario, phase), panel in result.panels.items():
        for freq in panel.x_values:
            for vms in (2, 4):
                vanilla = panel.value(f"vanilla-{vms}vms", freq)
                vread = panel.value(f"vRead-{vms}vms", freq)
                assert vread > vanilla, (
                    f"{scenario}/{phase}/{freq}/{vms}vms: vRead must win")

    # Improvement grows as the CPU slows (co-located cold read).
    slow = result.improvement_pct("colocated", "read", "1.6GHz", 2)
    fast = result.improvement_pct("colocated", "read", "3.2GHz", 2)
    assert slow > fast
    assert 10.0 < fast < 45.0     # paper ~20%
    assert 25.0 < slow < 60.0     # paper ~41%

    # Background VMs depress vanilla throughput noticeably.
    panel = result.panels[("colocated", "read")]
    for freq in panel.x_values:
        drop = (1 - panel.value("vanilla-4vms", freq)
                / panel.value("vanilla-2vms", freq)) * 100.0
        assert drop > 2.0, f"{freq}: expected a 4vms drop, got {drop:.1f}%"

    # Re-read gains dwarf cold-read gains.
    reread = result.improvement_pct("colocated", "reread", "2.0GHz", 2)
    cold = result.improvement_pct("colocated", "read", "2.0GHz", 2)
    assert reread > cold * 1.5
    assert reread > 50.0          # paper: up to 150%
