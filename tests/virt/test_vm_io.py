"""Tests for VM guest file I/O: caches, virtio-blk, cost attribution."""

import pytest

from repro.metrics.accounting import CLIENT_APPLICATION, COPY_VIRTIO, DISK_READ
from repro.storage.content import PatternSource
from repro.storage.filesystem import FsError


@pytest.fixture
def vm(single_host_bed):
    vm = single_host_bed.vms[0]
    vm.guest_fs.mkdir("/data")
    return vm


def test_read_returns_correct_bytes(single_host_bed, vm):
    vm.guest_fs.create("/data/f", b"the quick brown fox")

    def proc():
        source = yield from vm.read_file("/data/f")
        return source.read(0, source.size)

    assert single_host_bed.run(single_host_bed.sim.process(proc())) == \
        b"the quick brown fox"


def test_read_range(single_host_bed, vm):
    vm.guest_fs.create("/data/f", b"0123456789")

    def proc():
        source = yield from vm.read_file("/data/f", offset=2, length=5)
        return source.read(0, 5)

    assert single_host_bed.run(single_host_bed.sim.process(proc())) == b"23456"


def test_missing_file_raises(single_host_bed, vm):
    def proc():
        yield from vm.read_file("/data/missing")

    single_host_bed.sim.process(proc())
    with pytest.raises(FsError):
        single_host_bed.sim.run()


def test_cold_read_hits_disk_warm_read_does_not(single_host_bed, vm):
    bed = single_host_bed
    vm.guest_fs.create("/data/f", PatternSource(1 << 20, seed=1))
    host = vm.host

    def read_once():
        yield from vm.read_file("/data/f")

    bed.run(bed.sim.process(read_once()))
    cold_disk_bytes = host.ssd.bytes_read
    assert cold_disk_bytes >= 1 << 20
    bed.run(bed.sim.process(read_once()))
    assert host.ssd.bytes_read == cold_disk_bytes  # warm: no device I/O


def test_warm_read_is_faster(single_host_bed, vm):
    bed = single_host_bed
    vm.guest_fs.create("/data/f", PatternSource(1 << 20, seed=2))
    durations = []

    def read_once():
        start = bed.sim.now
        yield from vm.read_file("/data/f")
        durations.append(bed.sim.now - start)

    bed.run(bed.sim.process(read_once()))
    bed.run(bed.sim.process(read_once()))
    assert durations[1] < durations[0] / 2


def test_drop_guest_cache_forces_virtio_but_host_cache_absorbs_disk(
        single_host_bed, vm):
    bed = single_host_bed
    vm.guest_fs.create("/data/f", PatternSource(1 << 20, seed=3))
    host = vm.host

    def read_once():
        yield from vm.read_file("/data/f")

    bed.run(bed.sim.process(read_once()))
    disk_after_cold = host.ssd.bytes_read
    virtio_after_cold = vm.virtio_blk.bytes_read
    vm.drop_guest_cache()
    bed.run(bed.sim.process(read_once()))
    assert vm.virtio_blk.bytes_read > virtio_after_cold  # crossed virtio again
    assert host.ssd.bytes_read == disk_after_cold        # host cache absorbed it


def test_full_cold_read_after_both_caches_dropped(single_host_bed, vm):
    bed = single_host_bed
    vm.guest_fs.create("/data/f", PatternSource(1 << 20, seed=4))
    host = vm.host

    def read_once():
        yield from vm.read_file("/data/f")

    bed.run(bed.sim.process(read_once()))
    disk_after_cold = host.ssd.bytes_read
    vm.drop_guest_cache()
    host.drop_caches()
    bed.run(bed.sim.process(read_once()))
    assert host.ssd.bytes_read == 2 * disk_after_cold


def test_read_charges_expected_categories(single_host_bed, vm):
    bed = single_host_bed
    vm.guest_fs.create("/data/f", PatternSource(1 << 20, seed=5))
    mark = vm.host.accounting.snapshot()

    def proc():
        yield from vm.read_file("/data/f", copy_category=CLIENT_APPLICATION)

    bed.run(bed.sim.process(proc()))
    window = vm.host.accounting.since(mark).by_category()
    assert window.get(DISK_READ, 0) > 0          # syscall/issue path
    assert window.get(COPY_VIRTIO, 0) > 0        # qemu I/O thread copy
    assert window.get(CLIENT_APPLICATION, 0) > 0  # kernel->user copy


def test_write_then_read_roundtrip(single_host_bed, vm):
    bed = single_host_bed

    def proc():
        yield from vm.write_file("/data/out", b"alpha")
        yield from vm.write_file("/data/out", b"-beta")
        source = yield from vm.read_file("/data/out")
        return source.read(0, source.size)

    assert bed.run(bed.sim.process(proc())) == b"alpha-beta"


def test_write_reaches_ssd_when_sync(single_host_bed, vm):
    bed = single_host_bed

    def proc():
        yield from vm.write_file("/data/out", b"x" * 4096, sync=True)

    bed.run(bed.sim.process(proc()))
    assert vm.host.ssd.bytes_written >= 4096


def test_write_nosync_skips_device(single_host_bed, vm):
    bed = single_host_bed

    def proc():
        yield from vm.write_file("/data/out", b"x" * 4096, sync=False)

    bed.run(bed.sim.process(proc()))
    assert vm.host.ssd.bytes_written == 0


def test_written_data_is_cache_warm(single_host_bed, vm):
    bed = single_host_bed

    def write():
        yield from vm.write_file("/data/out", b"x" * 8192)

    bed.run(bed.sim.process(write()))
    virtio_reads_before = vm.virtio_blk.bytes_read

    def read():
        yield from vm.read_file("/data/out")

    bed.run(bed.sim.process(read()))
    assert vm.virtio_blk.bytes_read == virtio_reads_before  # guest-cache hit


def test_delete_and_rename(single_host_bed, vm):
    bed = single_host_bed
    vm.guest_fs.create("/data/f", b"z")

    def proc():
        yield from vm.rename_file("/data/f", "/data/g")
        yield from vm.delete_file("/data/g")

    bed.run(bed.sim.process(proc()))
    assert not vm.guest_fs.exists("/data/f")
    assert not vm.guest_fs.exists("/data/g")


def test_zero_length_read(single_host_bed, vm):
    bed = single_host_bed
    vm.guest_fs.create("/data/f", b"abc")

    def proc():
        source = yield from vm.read_file("/data/f", offset=3)
        return source.size

    assert bed.run(bed.sim.process(proc())) == 0


def test_delete_file_drops_guest_cache_pages(single_host_bed, vm):
    bed = single_host_bed
    before = vm.guest_cache.resident_pages

    def proc():
        yield from vm.write_file("/data/x", PatternSource(1 << 20, seed=1))
        assert vm.guest_cache.resident_pages == before + 256
        yield from vm.delete_file("/data/x")

    bed.run(bed.sim.process(proc()))
    assert vm.guest_cache.resident_pages == before
