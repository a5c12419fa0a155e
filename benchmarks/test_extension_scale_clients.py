"""Extension bench: multi-client scale-out (CPU-bound warm reads).

Shape checks: the vanilla path's aggregate throughput saturates the
quad-core host as clients are added, while vRead — needing a fraction of
the cycles per byte — keeps scaling, so the gap widens with client count.
"""

from repro.experiments.runner import run_experiment

FILE_BYTES = 16 << 20


def test_extension_scale_clients(benchmark, report):
    result = benchmark.pedantic(
        lambda: run_experiment("scale-clients",
                               params={"file_bytes": FILE_BYTES}),
        rounds=1, iterations=1)
    lines = [result.render()]
    gaps = []
    for i, n_clients in enumerate(result.x_values):
        vanilla = result.series["vanilla"][i]
        vread = result.series["vRead"][i]
        gap = (vread / vanilla - 1) * 100
        gaps.append(gap)
        lines.append(f"  {n_clients} clients: vRead advantage {gap:+.1f}%")
    report("\n".join(lines))
    # vRead wins at every client count...
    assert all(gap > 0 for gap in gaps)
    # ...and the advantage grows as the host saturates.
    assert gaps[-1] > gaps[0] * 1.5
    # vRead's aggregate keeps growing with clients; vanilla flattens.
    vread_series = result.series["vRead"]
    assert vread_series[-1] > vread_series[0] * 1.5
