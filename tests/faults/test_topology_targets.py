"""Fault targets resolve from the cluster topology, not hard-coded names."""

import pytest

from repro.cluster import VirtualHadoopCluster
from repro.faults.plan import (
    DiskOutage,
    ImageFault,
    MigrateVm,
    _find_host,
    _find_vm,
)


def make_cluster(**kwargs):
    kwargs.setdefault("block_size", 1 << 20)
    return VirtualHadoopCluster(**kwargs)


def test_find_host_accepts_datanode_ids():
    cluster = make_cluster()
    assert _find_host(cluster, "dn2") is cluster.datanodes[1].vm.host
    assert _find_host(cluster, cluster.hosts[1].name) is cluster.hosts[1]
    assert _find_host(cluster, None) is cluster.hosts[0]


def test_find_host_unknown_name_lists_options():
    cluster = make_cluster()
    with pytest.raises(ValueError, match="no host named 'host99'.*host1"):
        _find_host(cluster, "host99")
    with pytest.raises(ValueError, match="datanode ids also resolve.*dn1"):
        _find_host(cluster, "host99")


def test_find_vm_accepts_datanode_ids():
    cluster = make_cluster()
    assert _find_vm(cluster, "dn1") is cluster.datanode_vms[0]
    with pytest.raises(ValueError, match="no VM named 'ghost'"):
        _find_vm(cluster, "ghost")


def test_disk_outage_targets_host_of_datanode():
    cluster = make_cluster()
    fault = DiskOutage("dn2", duration=0.01)
    seen = []

    def proc():
        yield from fault.inject(cluster, cluster.fault_counters)

    def checker():
        yield cluster.sim.timeout(0.005)  # mid-outage
        seen.append(cluster.datanodes[1].vm.host.storage.failing)

    cluster.sim.process(proc())
    cluster.sim.process(checker())
    cluster.settle()
    assert seen == [True]
    assert not cluster.datanodes[1].vm.host.storage.failing


def test_image_fault_defaults_to_first_datanode():
    cluster = make_cluster()
    fault = ImageFault(duration=0.01)
    assert "first-datanode" in fault.describe()
    seen = []

    def proc():
        yield from fault.inject(cluster, cluster.fault_counters)

    def checker():
        yield cluster.sim.timeout(0.005)
        seen.append(cluster.datanode_vms[0].image.faulted)

    cluster.sim.process(proc())
    cluster.sim.process(checker())
    cluster.settle()
    assert seen == [True]


def test_migrate_vm_defaults_move_first_datanode_to_next_host():
    cluster = make_cluster(vread=True)
    fault = MigrateVm()
    assert "first-datanode" in fault.describe()
    assert "next-host" in fault.describe()
    assert cluster.datanode_vms[0].host is cluster.hosts[0]

    def proc():
        yield from fault.inject(cluster, cluster.fault_counters)

    cluster.run(cluster.sim.process(proc()))
    assert cluster.datanode_vms[0].host is cluster.hosts[1]
    assert cluster.fault_counters.get("fault.vm-migration-done") == 1


def test_migrate_vm_rejects_no_op_target():
    cluster = make_cluster()
    fault = MigrateVm(vm_name="datanode1", target_host="host1")

    def proc():
        yield from fault.inject(cluster, cluster.fault_counters)

    with pytest.raises(ValueError, match="current host"):
        cluster.run(cluster.sim.process(proc()))
