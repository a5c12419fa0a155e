"""Tests for the monitor's under-replication sweep (non-dead-node repairs)."""

import pytest

from repro.hdfs.fsck import fsck
from repro.hdfs.replication import ReplicationMonitor
from repro.storage.content import LiteralSource, PatternSource


def write(bed, path, data, **kwargs):
    def proc():
        yield from bed.client.write_file(path, data, **kwargs)

    bed.run(bed.sim.process(proc()))


def run_for(bed, seconds):
    def proc():
        yield bed.sim.timeout(seconds)

    bed.run(bed.sim.process(proc()))


def test_dropped_corrupt_replica_gets_repaired(hadoop_bed):
    """A corrupt replica dropped from the namenode's locations is
    re-replicated by the sweep without any datanode dying."""
    bed = hadoop_bed
    payload = PatternSource(100 * 1024, seed=77)
    write(bed, "/f", payload, replication=2)
    block = bed.namenode.get_blocks("/f")[0]

    inode = bed.datanode1_vm.guest_fs.lookup(
        bed.datanode1.block_path(block.name))
    inode.truncate()
    inode.append(LiteralSource(b"\x00" * block.size))
    bed.datanode1_vm.drop_guest_cache()
    block.locations.remove("dn1")  # the corrupt replica is reported

    monitor = ReplicationMonitor(bed.namenode, bed.network,
                                 heartbeat_interval=0.5)
    monitor.start(bed.sim)
    run_for(bed, 4.0)
    monitor.stop()

    assert monitor.re_replications >= 1
    assert len(block.locations) == 2
    assert fsck(bed.namenode).healthy
    # The repaired replica carries the *good* bytes (copied from dn2).
    repaired_dn = bed.datanode1 if "dn1" in block.locations else None
    assert repaired_dn is not None
    stored = repaired_dn.vm.guest_fs.read(
        repaired_dn.block_path(block.name))
    assert stored == payload.read(0, payload.size)


def test_sweep_does_not_duplicate_repairs(hadoop_bed):
    bed = hadoop_bed
    write(bed, "/f", b"x" * 50_000, replication=2)
    block = bed.namenode.get_blocks("/f")[0]
    block.locations.remove("dn1")  # manual decommission

    monitor = ReplicationMonitor(bed.namenode, bed.network,
                                 heartbeat_interval=0.3)
    monitor.start(bed.sim)
    run_for(bed, 5.0)
    monitor.stop()
    # Exactly one repair despite many monitor ticks.
    assert monitor.re_replications == 1
    assert sorted(block.locations) == ["dn1", "dn2"]


def test_sweep_leaves_satisfied_blocks_alone(hadoop_bed):
    bed = hadoop_bed
    write(bed, "/f", b"x" * 10_000, replication=2)
    monitor = ReplicationMonitor(bed.namenode, bed.network,
                                 heartbeat_interval=0.3)
    monitor.start(bed.sim)
    run_for(bed, 3.0)
    monitor.stop()
    assert monitor.re_replications == 0
