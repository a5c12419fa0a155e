"""Tests for the open-loop LoadGenerator (synthetic and cluster modes)."""

import tracemalloc

import pytest

from repro.cluster import VirtualHadoopCluster, paper_fig10
from repro.load import (LoadGenerator, SyntheticService, TenantSpec,
                        default_tenants)

QUICK = dict(rate=40.0, deadline_seconds=0.02, request_bytes=128 << 10,
             n_keys=3)


def test_generator_validates_population():
    with pytest.raises(ValueError, match="at least one tenant"):
        LoadGenerator([])
    twin = TenantSpec(name="dup")
    with pytest.raises(ValueError, match="unique"):
        LoadGenerator([twin, twin])
    with pytest.raises(ValueError, match="positive"):
        LoadGenerator(default_tenants(1, 10.0)).run_synthetic(0.0)


# ------------------------------------------------------------------ synthetic
def test_synthetic_is_deterministic_and_open_loop():
    def report(seed):
        return LoadGenerator(default_tenants(2, **QUICK),
                             seed=seed).run_synthetic(10.0)

    first, again, other = report(1), report(1), report(2)
    assert first.digest() == again.digest()
    assert first.digest() != other.digest()
    # Open loop: arrivals are counted even while the queue is backed up,
    # so arrivals ~ rate * duration regardless of service times.
    row = first.tenant("tenant1")
    assert row.arrivals == pytest.approx(400, rel=0.2)
    assert row.completions == row.arrivals  # synthetic serves everything


def test_synthetic_memory_is_bounded_by_the_sinks_not_the_samples():
    def peak_bytes(samples):
        rate = 10_000.0
        tenants = default_tenants(1, rate=rate, deadline_seconds=0.005,
                                  n_keys=64)
        tracemalloc.start()
        try:
            LoadGenerator(tenants, seed=1).run_synthetic(samples / rate)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # Retaining anything per sample (even one 8-byte slot) would cost
    # more than 4 bytes for each of the extra 90,000 samples.
    assert peak_bytes(100_000) - peak_bytes(10_000) < 4 * 90_000


def test_synthetic_latency_grows_with_load():
    """Open-loop M/G/1: pushing the rate toward saturation fattens p99."""
    def p99(rate):
        tenants = default_tenants(1, rate=rate, deadline_seconds=0.02)
        report = LoadGenerator(tenants, seed=3).run_synthetic(
            20.0, service=SyntheticService(base_seconds=4e-3,
                                           cached_seconds=4e-3,
                                           jitter_seconds=1e-3))
        return report.tenant("tenant1").p99_ms

    # ~5ms mean service: 100/s is rho~0.5, 190/s is rho~0.95.
    assert p99(190.0) > 2.0 * p99(100.0)


def test_synthetic_tenant_streams_are_independent():
    """Adding a tenant must not perturb another tenant's traffic."""
    solo = LoadGenerator([TenantSpec(name="a", **QUICK)],
                         seed=5).run_synthetic(5.0)
    duo = LoadGenerator([TenantSpec(name="a", **QUICK),
                         TenantSpec(name="b", **QUICK)],
                        seed=5).run_synthetic(5.0)
    assert solo.tenant("a").latency_digest == duo.tenant("a").latency_digest


# -------------------------------------------------------------------- cluster
def _cluster(vread=True, clients=2, faults=None):
    return VirtualHadoopCluster(block_size=1 << 20, vread=vread,
                                topology=paper_fig10(clients=clients),
                                faults=faults, seed=0)


def test_cluster_mode_requires_enough_client_vms():
    generator = LoadGenerator(default_tenants(3, **QUICK), seed=1)
    with pytest.raises(ValueError, match="client VMs"):
        generator.run_cluster(_cluster(clients=2), duration=0.5)


def test_cluster_mode_records_every_arrival():
    generator = LoadGenerator(default_tenants(2, **QUICK), seed=1)
    report = generator.run_cluster(_cluster(), duration=1.0)
    for name in ("tenant1", "tenant2"):
        row = report.tenant(name)
        assert row.completions == row.arrivals > 0
        assert row.p99_ms >= row.p50_ms > 0.0


def test_cluster_mode_deterministic_across_fresh_clusters():
    def digest():
        generator = LoadGenerator(default_tenants(2, **QUICK), seed=9)
        return generator.run_cluster(_cluster(), duration=1.0).digest()

    assert digest() == digest()


def test_faults_under_load_degrade_slo():
    # Cache drop + disk latency spike mid-run: the re-warming reads pay
    # the slow-disk price, so the faulted run's tail must be fatter.
    from repro.experiments.load_sweep import chaos_plan
    healthy = LoadGenerator(default_tenants(1, **QUICK), seed=2).run_cluster(
        _cluster(vread=False), duration=1.0)
    faulted = LoadGenerator(default_tenants(1, **QUICK), seed=2).run_cluster(
        _cluster(vread=False, faults=chaos_plan(1.0)), duration=1.0,
        arm_faults=True)
    assert faulted.worst_p99_ms() > 2.0 * healthy.worst_p99_ms()
