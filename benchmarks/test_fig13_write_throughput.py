"""Figure 13 bench: HDFS write throughput with vRead installed.

Shape check: the mount-refresh work triggered per committed block
(vRead_update) costs the writer essentially nothing — within 5% of vanilla
in every scenario (the paper calls it negligible).
"""

from repro.experiments.runner import run_experiment

FILE_BYTES = 32 << 20


def test_fig13_write_throughput(benchmark, report, cells):
    result = benchmark.pedantic(
        lambda: run_experiment("fig13", params={"file_bytes": FILE_BYTES},
                               cells=cells),
        rounds=1, iterations=1)
    lines = [result.render()]
    for i, scenario in enumerate(result.x_values):
        vanilla = result.series["vanilla"][i]
        vread = result.series["vRead"][i]
        overhead = (vanilla - vread) / vanilla * 100.0
        lines.append(f"  {scenario}: vRead write overhead = {overhead:+.2f}%")
        assert abs(overhead) < 5.0, (
            f"{scenario}: write overhead {overhead:.2f}% is not negligible")
        assert vanilla > 0 and vread > 0
    report("\n".join(lines))
