"""Tests for heartbeats, dead-node detection, and re-replication."""

import pytest

from repro.hdfs.replication import ReplicationMonitor
from repro.storage.content import PatternSource


def write(bed, path, data, **kwargs):
    def proc():
        yield from bed.client.write_file(path, data, **kwargs)

    bed.run(bed.sim.process(proc()))


def run_for(bed, seconds):
    def proc():
        yield bed.sim.timeout(seconds)

    bed.run(bed.sim.process(proc()))


def test_heartbeats_keep_nodes_alive(hadoop_bed):
    bed = hadoop_bed
    monitor = ReplicationMonitor(bed.namenode, bed.network,
                                 heartbeat_interval=0.5)
    monitor.start(bed.sim)
    run_for(bed, 5.0)
    monitor.stop()
    assert not monitor.is_dead("dn1")
    assert not monitor.is_dead("dn2")


def test_stopped_datanode_declared_dead(hadoop_bed):
    bed = hadoop_bed
    monitor = ReplicationMonitor(bed.namenode, bed.network,
                                 heartbeat_interval=0.5,
                                 dead_after_missed=2)
    monitor.start(bed.sim)
    bed.datanode1.stop()
    run_for(bed, 5.0)
    monitor.stop()
    assert monitor.is_dead("dn1")
    assert not monitor.is_dead("dn2")


def test_dead_node_removed_from_block_locations(hadoop_bed):
    bed = hadoop_bed
    write(bed, "/f", b"x" * 1000, favored=["dn1"])
    block = bed.namenode.get_blocks("/f")[0]
    assert block.locations == ["dn1"]
    monitor = ReplicationMonitor(bed.namenode, bed.network,
                                 heartbeat_interval=0.5)
    monitor.start(bed.sim)
    bed.datanode1.stop()
    run_for(bed, 5.0)
    monitor.stop()
    assert "dn1" not in block.locations


def test_under_replicated_block_is_re_replicated(hadoop_bed):
    bed = hadoop_bed
    payload = PatternSource(300 * 1024, seed=31)
    write(bed, "/r2", payload, replication=2)
    block = bed.namenode.get_blocks("/r2")[0]
    assert sorted(block.locations) == ["dn1", "dn2"]

    monitor = ReplicationMonitor(bed.namenode, bed.network,
                                 heartbeat_interval=0.5)
    monitor.start(bed.sim)
    bed.datanode1.stop()
    run_for(bed, 8.0)
    monitor.stop()
    # dn1 is gone; with only dn2 alive there is nowhere new to copy to, so
    # locations shrink but the data stays readable from dn2.
    assert block.locations == ["dn2"]

    def read():
        source = yield from bed.client.read_file("/r2")
        return source

    got = bed.run(bed.sim.process(read()))
    assert got.checksum() == payload.checksum()


def test_re_replication_to_third_datanode():
    """With a spare datanode available, losing a replica triggers an actual
    copy and the block becomes 2-way replicated again."""
    from tests.conftest import Testbed
    from repro.hdfs import Datanode, DfsClient, HdfsConfig, Namenode

    bed = Testbed(n_hosts=3, vms_per_host=1)
    # Host1 gets a client VM too.
    from repro.virt.vm import VirtualMachine
    client_vm = VirtualMachine(bed.hosts[0], "client")
    config = HdfsConfig(block_size=256 * 1024, replication=2)
    namenode = Namenode(config, vm=client_vm)
    datanodes = [Datanode(f"dn{i + 1}", bed.vms[i], namenode, bed.network)
                 for i in range(3)]
    client = DfsClient(client_vm, namenode, bed.network)
    payload = PatternSource(200 * 1024, seed=9)

    def load():
        yield from client.write_file("/f", payload, replication=2)

    bed.run(bed.sim.process(load()))
    block = namenode.get_blocks("/f")[0]
    original = list(block.locations)
    assert len(original) == 2

    monitor = ReplicationMonitor(namenode, bed.network,
                                 heartbeat_interval=0.5)
    monitor.start(bed.sim)
    victim = next(dn for dn in datanodes
                  if dn.datanode_id == original[0])
    victim.stop()

    def wait():
        yield bed.sim.timeout(8.0)

    bed.run(bed.sim.process(wait()))
    monitor.stop()
    assert monitor.re_replications == 1
    assert len(block.locations) == 2
    assert original[0] not in block.locations
    # The new replica's file really exists and carries the right bytes.
    new_dn_id = next(dn_id for dn_id in block.locations
                     if dn_id != original[1])
    new_dn = next(dn for dn in datanodes if dn.datanode_id == new_dn_id)
    stored = new_dn.vm.guest_fs.read(new_dn.block_path(block.name))
    assert stored == payload.read(0, payload.size)


def test_monitor_double_start_rejected(hadoop_bed):
    monitor = ReplicationMonitor(hadoop_bed.namenode, hadoop_bed.network)
    monitor.start(hadoop_bed.sim)
    with pytest.raises(RuntimeError):
        monitor.start(hadoop_bed.sim)
    monitor.stop()


def test_recovered_node_leaves_dead_set(hadoop_bed):
    bed = hadoop_bed
    monitor = ReplicationMonitor(bed.namenode, bed.network,
                                 heartbeat_interval=0.5)
    monitor.start(bed.sim)
    bed.datanode1.stop()
    run_for(bed, 4.0)
    assert monitor.is_dead("dn1")
    bed.datanode1.start()
    run_for(bed, 3.0)
    monitor.stop()
    assert not monitor.is_dead("dn1")


def test_rebalance_drops_moved_replica_pages_from_donor_cache(hadoop_bed):
    bed = hadoop_bed
    cache = bed.datanode1_vm.guest_cache
    write(bed, "/a", PatternSource(64 * 1024, seed=1), favored=["dn1"])
    one_block = cache.resident_pages
    write(bed, "/b", PatternSource(64 * 1024, seed=2), favored=["dn1"])
    assert cache.resident_pages > one_block
    monitor = ReplicationMonitor(bed.namenode, bed.network)

    def proc():
        return (yield from monitor.rebalance())

    assert bed.run(bed.sim.process(proc())) == 1
    # Both blocks are the same size, so whichever moved, the donor is back
    # to holding one block's pages.
    assert cache.resident_pages == one_block
