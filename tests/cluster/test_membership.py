"""Tests for the cluster membership control plane (``cluster.membership``)."""

import pytest

from repro.cluster import (MembershipError, VirtualHadoopCluster,
                           rack_cluster)
from repro.storage.content import PatternSource


def elastic_cluster(vread=False, replication=2, **kwargs):
    return VirtualHadoopCluster(block_size=256 << 10,
                                replication=replication, vread=vread,
                                topology=rack_cluster(2, 2, clients=2),
                                **kwargs)


def write(cluster, path, payload, **kwargs):
    def proc():
        yield from cluster.write_dataset(path, payload, **kwargs)

    cluster.run(cluster.sim.process(proc()))
    cluster.settle()


def read_checksum(cluster, path, client=None):
    client = client or cluster.clients.get()

    def proc():
        source = yield from client.read_file(path, 64 << 10)
        return source.checksum()

    return cluster.run(cluster.sim.process(proc()))


# ----------------------------------------------------------- churn-free path
def test_untouched_cluster_stays_at_version_zero():
    cluster = elastic_cluster()
    assert cluster.membership.version == 0
    assert cluster.membership.log == []
    assert cluster.membership.monitor is None
    write(cluster, "/f", PatternSource(300 << 10, seed=1))
    assert read_checksum(cluster, "/f") == PatternSource(300 << 10,
                                                        seed=1).checksum()
    # Plain load never moves the membership version.
    assert cluster.membership.version == 0


def test_runtime_view_matches_build():
    cluster = elastic_cluster()
    controller = cluster.membership
    assert controller.live_datanode_ids() == ["dn1", "dn2", "dn3", "dn4"]
    assert controller.client_vm_names() == ["client", "client2"]
    spec = controller.runtime_spec()
    assert [h.name for h in spec.hosts()] == [h.name for h in cluster.hosts]


# -------------------------------------------------------------- add_datanode
def test_add_datanode_registers_everywhere():
    cluster = elastic_cluster(vread=True)
    controller = cluster.membership
    datanode = controller.add_datanode("host1")
    assert datanode.datanode_id == "dn5"
    assert controller.live_datanode_ids()[-1] == "dn5"
    assert "dn5" in cluster.namenode.datanode_ids()
    assert controller.version == 1
    assert controller.log[0][1] == "datanode-added"
    # The new node is placeable: a favored write lands on it.
    write(cluster, "/new", PatternSource(300 << 10, seed=2), favored=["dn5"])
    assert all("dn5" in b.locations
               for b in cluster.namenode.get_blocks("/new"))
    # vRead host services know where it lives.
    assert cluster.vread_manager.service_for(
        cluster.hosts[0]).is_local("dn5")


def test_add_datanode_rejects_duplicate_names():
    cluster = elastic_cluster()
    controller = cluster.membership
    with pytest.raises(MembershipError, match="already in use"):
        controller.add_datanode("host1", name="datanode1")
    with pytest.raises(MembershipError, match="already in use"):
        controller.add_datanode("host1", datanode_id="dn2")


def test_unknown_host_gets_suggestion():
    cluster = elastic_cluster()
    with pytest.raises(MembershipError, match="did you mean 'host1'"):
        cluster.membership.add_datanode("host11")


# ------------------------------------------------------------- decommission
def test_decommission_drains_detaches_and_data_survives():
    cluster = elastic_cluster()
    controller = cluster.membership
    payload = PatternSource(600 << 10, seed=3)
    write(cluster, "/f", payload)

    def churn():
        yield from controller.decommission_datanode("dn2",
                                                    poll_interval=0.2)

    cluster.run(cluster.sim.process(churn()))
    controller.stop_monitor()
    cluster.settle()

    assert controller.live_datanode_ids() == ["dn1", "dn3", "dn4"]
    assert controller.decommissioned == ["dn2"]
    assert "dn2" not in cluster.namenode.datanode_ids()
    assert controller.version == 1
    for block in cluster.namenode.get_blocks("/f"):
        assert "dn2" not in block.locations
    assert read_checksum(cluster, "/f") == payload.checksum()
    # The drained VM left its host: threads retired, roster clean.
    assert all(vm.name != "datanode2"
               for host in cluster.hosts for vm in host.vms)


def test_decommission_unknown_and_repeat_are_informative():
    cluster = elastic_cluster()
    controller = cluster.membership
    with pytest.raises(MembershipError, match="did you mean 'dn1'"):
        next(controller.decommission_datanode("dn11"))

    def churn():
        yield from controller.decommission_datanode("dn4",
                                                    poll_interval=0.2)

    cluster.run(cluster.sim.process(churn()))
    controller.stop_monitor()
    with pytest.raises(MembershipError, match="already decommissioned"):
        next(controller.decommission_datanode("dn4"))


def test_last_datanode_cannot_be_decommissioned():
    cluster = VirtualHadoopCluster(block_size=256 << 10,
                                   topology=rack_cluster(1, 2))
    controller = cluster.membership

    def churn():
        yield from controller.decommission_datanode("dn2",
                                                    poll_interval=0.2)

    cluster.run(cluster.sim.process(churn()))
    controller.stop_monitor()
    assert controller.live_datanode_ids() == ["dn1"]
    with pytest.raises(MembershipError, match="last"):
        next(controller.decommission_datanode("dn1"))


# ---------------------------------------------------------------- migration
def test_migrate_datanode_rebinds_vread():
    cluster = elastic_cluster(vread=True)
    controller = cluster.membership
    payload = PatternSource(300 << 10, seed=5)
    write(cluster, "/f", payload, favored=["dn2"])

    def churn():
        yield from controller.migrate("datanode2", "host3",
                                      ram_bytes=1 << 20)

    cluster.run(cluster.sim.process(churn()))
    assert controller.version == 1
    datanode2 = cluster.namenode.datanode("dn2")
    assert datanode2.vm.host.name == "host3"
    assert cluster.vread_manager.service_for(
        cluster.hosts[2]).is_local("dn2")
    assert not cluster.vread_manager.service_for(
        cluster.hosts[1]).is_local("dn2")
    client = cluster.clients.get(mode="vread")
    assert read_checksum(cluster, "/f", client=client) == payload.checksum()


def test_migrate_same_host_and_attached_client_rejected():
    cluster = elastic_cluster(vread=True)
    controller = cluster.membership
    with pytest.raises(MembershipError,
                       match="is the VM's current host"):
        next(controller.migrate("datanode1", "host1"))
    cluster.clients.get(mode="vread")  # attach the library
    with pytest.raises(MembershipError, match="vRead client attachment"):
        next(controller.migrate("client", "host2"))


# ---------------------------------------------------------------- event log
def test_log_and_counters_record_every_membership_event():
    cluster = elastic_cluster()
    controller = cluster.membership
    controller.add_datanode("host2")

    def churn():
        yield from controller.migrate("datanode1", "host3",
                                      ram_bytes=1 << 20)

    cluster.run(cluster.sim.process(churn()))
    assert [entry[:2] for entry in controller.log] == [
        (1, "datanode-added"), (2, "vm-migrated")]
    assert controller.log[0][2] == {"datanode": "dn5", "host": "host2"}
    assert controller.log[1][2] == {"vm": "datanode1", "host": "host3"}
    assert controller.version == 2
    counters = cluster.fault_counters
    assert counters.get("membership.datanode-added") == 1
    assert counters.get("membership.vm-migrated") == 1
    assert counters.get("membership.datanode-decommissioned") == 0
