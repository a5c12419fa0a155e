"""Tests for the registry and the parallel experiment runner.

The determinism contract is the load-bearing one: a sweep fanned out over
worker processes must produce byte-identical results to the serial run,
because every point's seed derives from ``(root_seed, point)`` rather than
from scheduling order.
"""

import pytest

from repro.cli import EXPERIMENTS
from repro.experiments import dfsio_sweep, registry, runner

# Small enough to keep the fork+simulate round under a few seconds.
_CHAOS_PARAMS = {"cases": 3, "file_bytes": 1 << 20, "faults": 2,
                 "horizon": 0.002}


def test_derive_seed_is_stable_and_point_sensitive():
    seed = runner.derive_seed(0, ("case", 0))
    assert seed == runner.derive_seed(0, ("case", 0))  # process-independent
    assert seed != runner.derive_seed(0, ("case", 1))
    assert seed != runner.derive_seed(1, ("case", 0))


def test_parallel_chaos_sweep_matches_serial_byte_for_byte():
    serial = runner.run_experiment("chaos-sweep", jobs=1, seed=0,
                                   params=_CHAOS_PARAMS)
    parallel = runner.run_experiment("chaos-sweep", jobs=4, seed=0,
                                     params=_CHAOS_PARAMS)
    assert runner.canonical_json(serial) == runner.canonical_json(parallel)
    # The storms actually fired — the equality above compared real activity.
    assert sum(serial.series["faults"]) > 0
    assert all(v == 1.0 for v in serial.series["verified"])


def test_parallel_storage_tiers_matches_serial_byte_for_byte():
    params = {"file_bytes": 1 << 20}
    serial = runner.run_experiment("ablation-storage-tiers", jobs=1, seed=0,
                                   params=params)
    parallel = runner.run_experiment("ablation-storage-tiers", jobs=4,
                                     seed=0, params=params)
    assert runner.canonical_json(serial) == runner.canonical_json(parallel)
    # Faster media means faster cold reads, in every mode.
    for mode in ("vanilla", "vRead"):
        cold = serial.series[f"{mode} cold"]
        assert cold[0] < cold[1] < cold[2]  # hdd < ssd < nvme
    # ...and vRead's cold-read gain grows with media speed: the device
    # stops hiding the CPU cost vRead removes.
    gains = [v / b for v, b in zip(serial.series["vRead cold"],
                                   serial.series["vanilla cold"])]
    assert gains[0] < gains[-1]


@pytest.mark.parametrize("name", ["fig11", "scale-racks", "scale-churn"])
def test_fanned_out_quick_profile_matches_serial(monkeypatch, name):
    # The dfsio sweep memoizes cells per process; forked workers would
    # inherit the serial run's memo, so each run starts from an empty one.
    monkeypatch.setattr(dfsio_sweep, "_cache", {})
    serial = runner.run_experiment(name, profile="quick", jobs=1, seed=0)
    monkeypatch.setattr(dfsio_sweep, "_cache", {})
    parallel = runner.run_experiment(name, profile="quick", jobs=2, seed=0)
    assert runner.canonical_json(serial) == runner.canonical_json(parallel)


def test_root_seed_changes_the_sweep():
    one = runner.run_experiment("chaos-sweep", jobs=1, seed=0,
                                params=_CHAOS_PARAMS)
    other = runner.run_experiment("chaos-sweep", jobs=1, seed=1,
                                  params=_CHAOS_PARAMS)
    assert runner.canonical_json(one) != runner.canonical_json(other)


def test_every_cli_experiment_is_registered_with_profiles():
    for name in EXPERIMENTS:
        spec = registry.get(name)
        assert callable(spec.resolve())
        for profile in registry.PROFILES:
            assert isinstance(spec.params(profile), dict)


def test_unknown_names_are_diagnosed():
    with pytest.raises(KeyError, match="fig11"):
        registry.get("fig99")
    with pytest.raises(KeyError, match="unknown profile"):
        registry.get("fig11").params("huge")


def test_runner_rejects_zero_jobs():
    with pytest.raises(ValueError, match="jobs"):
        runner.run_experiment("chaos-sweep", jobs=0)


def test_jsonable_normalizes_containers():
    data = {("a", 1): (1, 2.5, None), "b": [True, "x"]}
    assert runner.jsonable(data) == {"('a', 1)": [1, 2.5, None],
                                     "b": [True, "x"]}


def test_fanout_points_cover_the_grid():
    spec = registry.get("fig11")
    points = spec.fanout.points(spec.params("quick"))
    assert len(points) == len(set(points))  # distinct, hashable
    from repro.experiments.dfsio_sweep import MODES, SCENARIOS, VM_COUNTS
    from repro.hostmodel.frequency import PAPER_FREQUENCIES
    assert len(points) == (len(SCENARIOS) * len(PAPER_FREQUENCIES)
                           * len(VM_COUNTS) * len(MODES))
