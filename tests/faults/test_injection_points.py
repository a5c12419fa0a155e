"""Per-layer fault injection points: rings, RDMA, disks, caches, images,
migration — each fault lands in its layer and the read paths absorb it."""

import pytest

from repro.cluster import VirtualHadoopCluster
from repro.faults import (
    DiskOutage,
    FaultPlan,
    GuestCacheDrop,
    ImageFault,
    MigrateVm,
    RdmaFlap,
    RetryPolicy,
    RingStall,
)
from repro.storage.content import PatternSource

BLOCK = 256 * 1024


def load(cluster, path, payload, **kwargs):
    def proc():
        yield from cluster.write_dataset(path, payload, **kwargs)

    cluster.run(cluster.sim.process(proc()))
    cluster.settle()


def read_all(cluster, client, path):
    def proc():
        source = yield from client.read_file(path, 64 * 1024)
        return source

    return cluster.run(cluster.sim.process(proc()))


def test_ring_stall_delays_but_does_not_corrupt():
    payload = PatternSource(1 << 20, seed=1)

    def timed_read(plan):
        cluster = VirtualHadoopCluster(block_size=BLOCK, vread=True,
                                       faults=plan, seed=3)
        load(cluster, "/data", payload)
        cluster.faults.arm()
        start = cluster.sim.now
        got = read_all(cluster, cluster.clients.get(), "/data")
        return got, cluster.sim.now - start

    baseline, quick = timed_read(None)
    stalled, slow = timed_read(FaultPlan().at(0.0, RingStall(duration=0.05)))
    assert baseline.checksum() == payload.checksum()
    assert stalled.checksum() == payload.checksum()
    # The stall held the rings for 50ms; the read had to wait it out.
    assert slow >= 0.05 > quick


def test_rdma_flap_falls_back_to_tcp():
    # All blocks on the remote datanode so vRead must cross hosts.
    plan = FaultPlan().at(0.0, RdmaFlap(duration=0.5))
    cluster = VirtualHadoopCluster(block_size=BLOCK, vread=True,
                                   faults=plan, seed=3)
    payload = PatternSource(1 << 20, seed=2)
    load(cluster, "/data", payload, favored=["dn2"])
    cluster.faults.arm()
    got = read_all(cluster, cluster.clients.get(), "/data")
    assert got.checksum() == payload.checksum()
    counters = cluster.fault_counters
    assert counters.get("recovery.rdma-tcp-fallback") >= 1
    assert cluster.rdma.failures >= 1


def test_disk_outage_fails_over_to_healthy_replica():
    plan = FaultPlan().at(0.0, DiskOutage("host1", duration=0.3))
    cluster = VirtualHadoopCluster(block_size=BLOCK, replication=2,
                                   faults=plan, seed=3)
    payload = PatternSource(1 << 20, seed=4)
    load(cluster, "/data", payload)
    cluster.drop_all_caches()  # cold read: force real disk I/O
    client = cluster.clients.get()
    client.retry_policy = RetryPolicy(attempt_timeout=0.1, base_backoff=0.01)
    cluster.faults.arm()
    got = read_all(cluster, client, "/data")
    assert got.checksum() == payload.checksum()
    assert cluster.hosts[0].storage.io_errors >= 1
    assert cluster.fault_counters.get("recovery.replica-failover") >= 1


def test_guest_cache_drop_empties_the_cache():
    plan = FaultPlan().at(0.0, GuestCacheDrop("datanode1"))
    cluster = VirtualHadoopCluster(block_size=BLOCK, faults=plan, seed=3)
    payload = PatternSource(512 * 1024, seed=5)
    load(cluster, "/data", payload, favored=["dn1"])
    vm = cluster.datanode_vms[0]
    assert vm.guest_cache.resident_pages > 0
    cluster.faults.arm()
    cluster.settle()
    assert vm.guest_cache.resident_pages == 0


def test_image_fault_degrades_vread_but_read_survives():
    plan = FaultPlan().at(0.0, ImageFault("datanode1", duration=0.5))
    cluster = VirtualHadoopCluster(block_size=BLOCK, vread=True,
                                   faults=plan, seed=3)
    payload = PatternSource(1 << 20, seed=6)
    load(cluster, "/data", payload, favored=["dn1"])
    cluster.faults.arm()
    got = read_all(cluster, cluster.clients.get(), "/data")
    assert got.checksum() == payload.checksum()
    assert cluster.fault_counters.get("recovery.fallback-vanilla") >= 1


def test_vm_migration_rebinds_and_vread_still_works():
    plan = FaultPlan().at(0.0, MigrateVm("datanode1", "host2"))
    cluster = VirtualHadoopCluster(block_size=BLOCK, vread=True,
                                   faults=plan, seed=3)
    payload = PatternSource(1 << 20, seed=7)
    load(cluster, "/data", payload, favored=["dn1"])
    cluster.faults.arm()
    cluster.settle()  # complete the migration
    assert cluster.datanode_vms[0].host is cluster.hosts[1]
    assert cluster.fault_counters.get("fault.vm-migration-done") == 1
    got = read_all(cluster, cluster.clients.get(), "/data")
    assert got.checksum() == payload.checksum()
