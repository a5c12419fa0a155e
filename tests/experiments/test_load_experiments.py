"""Registry + determinism tests for the open-loop load experiments."""

import pytest

from repro.experiments import registry, runner
from repro.experiments.load_sweep import LoadSweepResult

TINY_SWEEP = {"rates": (30.0,), "duration": 0.8, "n_tenants": 2,
              "request_bytes": 64 << 10, "deadline_ms": 2.0,
              "arrival_kind": "poisson"}
TINY_TENANTS = {"tenant_counts": (1, 2), "rate": 25.0, "duration": 0.8,
                "request_bytes": 64 << 10, "deadline_ms": 2.0,
                "arrival_kind": "poisson"}


def test_registered_with_fanouts():
    for name in ("load-sweep", "scale-tenants"):
        spec = registry.get(name)
        assert spec.group == "extension"
        assert spec.fanout is not None
        for profile in ("quick", "default", "paper"):
            assert spec.params(profile)


def test_load_sweep_jobs_byte_identical():
    serial = runner.run_experiment("load-sweep", jobs=1, seed=11,
                                   params=dict(TINY_SWEEP))
    parallel = runner.run_experiment("load-sweep", jobs=4, seed=11,
                                     params=dict(TINY_SWEEP))
    assert isinstance(serial, LoadSweepResult)
    assert serial.digest() == parallel.digest()
    assert (runner.canonical_json(serial)
            == runner.canonical_json(parallel))


def test_scale_tenants_jobs_byte_identical():
    serial = runner.run_experiment("scale-tenants", jobs=1, seed=4,
                                   params=dict(TINY_TENANTS))
    parallel = runner.run_experiment("scale-tenants", jobs=3, seed=4,
                                     params=dict(TINY_TENANTS))
    assert serial.digest() == parallel.digest()
    assert (runner.canonical_json(serial)
            == runner.canonical_json(parallel))


def test_seed_actually_matters():
    one = runner.run_experiment("load-sweep", jobs=1, seed=1,
                                params=dict(TINY_SWEEP))
    two = runner.run_experiment("load-sweep", jobs=1, seed=2,
                                params=dict(TINY_SWEEP))
    assert one.digest() != two.digest()


def test_result_accessors():
    result = runner.run_experiment("load-sweep", jobs=1, seed=0,
                                   params=dict(TINY_SWEEP))
    assert result.p99_series("vRead") and result.p99_series("vanilla")
    assert len(result.goodput_series("vanilla", "chaos")) == 1
    assert all(0.0 <= v <= 1.0
               for v in result.violation_series("vanilla", "chaos"))
    report = result.report("vRead", "healthy", 30.0)
    assert set(report.tenants) == {"tenant1", "tenant2"}
    for row in report.tenants.values():
        assert row.p99_9_ms >= row.p99_ms >= row.p50_ms
    with pytest.raises(KeyError, match="no sweep point"):
        result.report("vRead", "healthy", 999.0)
    rendered = result.render()
    assert "healthy" in rendered and "chaos" in rendered