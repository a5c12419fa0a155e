"""Tests for the open-loop LoadGenerator."""

import pytest

from repro.cluster import VirtualHadoopCluster, paper_fig10
from repro.load import LoadGenerator, TenantSpec, default_tenants

QUICK = dict(rate=40.0, deadline_seconds=0.02, request_bytes=128 << 10,
             n_keys=3)


def test_generator_validates_population():
    with pytest.raises(ValueError, match="at least one tenant"):
        LoadGenerator([])
    twin = TenantSpec(name="dup")
    with pytest.raises(ValueError, match="unique"):
        LoadGenerator([twin, twin])
    with pytest.raises(ValueError, match="positive"):
        LoadGenerator(default_tenants(1, 10.0)).run_cluster(
            _cluster(), duration=0.0)


def test_tenant_streams_are_independent():
    """Adding a tenant must not perturb another tenant's traffic."""
    def traffic(generator, tenant, duration=5.0):
        rng_keys = generator._stream("keys", tenant)
        keys = tenant.keys()
        arrivals = list(tenant.arrivals().times(
            generator._stream("arrivals", tenant), duration))
        return arrivals, [keys.pick(rng_keys) for _ in arrivals]

    a, b = TenantSpec(name="a", **QUICK), TenantSpec(name="b", **QUICK)
    solo = traffic(LoadGenerator([a], seed=5), a)
    duo = LoadGenerator([a, b], seed=5)
    traffic(duo, b)  # b draws first: a's streams must not notice
    assert traffic(duo, a) == solo
    assert len(solo[0]) > 100


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
