"""Tests for the FaultPlan DSL and the FaultInjector."""

import pytest

from repro.cluster import VirtualHadoopCluster
from repro.faults import (
    DatanodeCrash,
    DiskLatencySpike,
    FaultInjector,
    FaultPlan,
    HostCacheDrop,
    RdmaFlap,
    random_plan,
)
from repro.storage.content import PatternSource


def test_plan_dsl_chains_and_counts():
    plan = (FaultPlan()
            .at(0.5, RdmaFlap(duration=0.1))
            .at(0.1, DatanodeCrash("dn1")))
    assert len(plan) == 2
    text = plan.describe()
    # Entries render sorted by time.
    assert text.index("datanode-crash") < text.index("rdma-flap")


def test_plan_rejects_bad_entries():
    with pytest.raises(ValueError, match="non-negative"):
        FaultPlan().at(-1.0, RdmaFlap())
    with pytest.raises(TypeError, match="expected a Fault"):
        FaultPlan().at(0.0, "rdma-flap")


def test_fault_target_resolution_errors():
    cluster = VirtualHadoopCluster(block_size=1 << 20)
    cluster.faults.plan.at(0.0, DiskLatencySpike("host99"))
    cluster.faults.arm()
    with pytest.raises(ValueError, match="no host named 'host99'.*host1"):
        cluster.settle()


def test_injector_times_are_relative_to_arming():
    plan = FaultPlan().at(0.2, DiskLatencySpike("host1", factor=5.0,
                                                duration=0.3))
    cluster = VirtualHadoopCluster(block_size=1 << 20, faults=plan)
    payload = PatternSource(64 * 1024, seed=1)

    def load():
        yield from cluster.write_dataset("/data", payload)

    cluster.run(cluster.sim.process(load()))
    cluster.settle()
    started = cluster.sim.now
    assert started > 0
    cluster.faults.arm()
    ssd = cluster.hosts[0].storage

    def watch():
        assert ssd.latency_factor == 1.0  # not yet
        yield cluster.sim.timeout(0.25)
        assert ssd.latency_factor == 5.0  # spiking
        yield cluster.sim.timeout(0.5)
        assert ssd.latency_factor == 1.0  # reverted

    cluster.run(cluster.sim.process(watch()))
    assert cluster.fault_counters.get("fault.disk-latency-spike") == 1


def test_injector_arm_twice_is_an_error():
    cluster = VirtualHadoopCluster(block_size=1 << 20)
    cluster.faults.arm()
    with pytest.raises(RuntimeError, match="already armed"):
        cluster.faults.arm()


def test_host_cache_drop_empties_the_page_cache():
    plan = FaultPlan().at(0.0, HostCacheDrop("host1"))
    cluster = VirtualHadoopCluster(block_size=1 << 20, faults=plan)
    payload = PatternSource(128 * 1024, seed=2)

    def load():
        yield from cluster.write_dataset("/data", payload)

    cluster.run(cluster.sim.process(load()))
    assert cluster.hosts[0].page_cache.resident_pages > 0
    cluster.faults.arm()
    cluster.settle()
    assert cluster.hosts[0].page_cache.resident_pages == 0
    assert cluster.fault_counters.get("fault.host-cache-drop") == 1


def test_injector_counts_injections():
    plan = (FaultPlan()
            .at(0.0, RdmaFlap(duration=0.1))
            .at(0.05, RdmaFlap(duration=0.1)))
    cluster = VirtualHadoopCluster(block_size=1 << 20, faults=plan)
    cluster.faults.arm()
    cluster.settle()
    assert cluster.faults.injected == 2
    assert cluster.fault_counters.get("fault.rdma-flap") == 2
    assert cluster.fault_counters.total("fault.") >= 2
    # Counts flow into the cluster tracer under the 'fault' category.
    assert len(cluster.tracer.events(category="fault",
                                     name="fault.rdma-flap")) == 2


def test_random_plan_is_seed_deterministic():
    plan_a = random_plan(seed=42, faults=6)
    plan_b = random_plan(seed=42, faults=6)
    plan_c = random_plan(seed=43, faults=6)
    assert plan_a.describe() == plan_b.describe()
    assert plan_a.describe() != plan_c.describe()
    assert len(plan_a) == 6


def test_crash_target_resolves_against_live_membership():
    """A decommissioned datanode id is a hard error naming the live set,
    not a silent no-op against stale build-time state."""
    from repro.cluster import rack_cluster

    cluster = VirtualHadoopCluster(block_size=256 << 10, replication=2,
                                   topology=rack_cluster(1, 3))

    def churn():
        yield from cluster.membership.decommission_datanode(
            "dn2", poll_interval=0.2)

    cluster.run(cluster.sim.process(churn()))
    cluster.membership.stop_monitor()

    cluster.faults.plan.at(0.0, DatanodeCrash("dn2"))
    cluster.faults.arm()
    with pytest.raises(ValueError, match=r"no live datanode 'dn2' \('dn2' "
                                         r"was decommissioned\).*dn1"):
        cluster.settle()


def test_decommission_fault_drains_through_membership():
    from repro.cluster import rack_cluster
    from repro.faults import DecommissionDatanode

    plan = FaultPlan().at(0.0, DecommissionDatanode("dn3",
                                                    poll_interval=0.2))
    cluster = VirtualHadoopCluster(block_size=256 << 10, replication=2,
                                   topology=rack_cluster(1, 3), faults=plan)
    payload = PatternSource(600 << 10, seed=31)

    def load():
        yield from cluster.write_dataset("/f", payload)

    cluster.run(cluster.sim.process(load()))
    cluster.settle()
    cluster.faults.arm()

    def run_for():
        # Bounded run: the drain's monitor heartbeats forever, so a
        # plain settle() would never return until it is stopped.
        yield cluster.sim.timeout(1.0)

    cluster.run(cluster.sim.process(run_for()))
    cluster.membership.stop_monitor()
    cluster.settle()

    assert cluster.membership.decommissioned == ["dn3"]
    assert cluster.membership.live_datanode_ids() == ["dn1", "dn2"]
    assert cluster.fault_counters.get("fault.decommission-done") == 1

    def read():
        source = yield from cluster.clients.get().read_file("/f", 64 << 10)
        return source

    assert cluster.run(
        cluster.sim.process(read())).checksum() == payload.checksum()
