"""Direct unit tests for the virtio-blk device model."""

import pytest

from repro.metrics.accounting import COPY_VIRTIO


def test_read_counts_requests_and_bytes(single_host_bed):
    vm = single_host_bed.vms[0]

    def proc():
        yield from vm.virtio_blk.read(("img", 1), 0, 8192)

    single_host_bed.run(single_host_bed.sim.process(proc()))
    assert vm.virtio_blk.requests == 1
    assert vm.virtio_blk.bytes_read == 8192


def test_zero_length_read_is_noop(single_host_bed):
    vm = single_host_bed.vms[0]

    def proc():
        yield from vm.virtio_blk.read(("img", 1), 0, 0)

    single_host_bed.run(single_host_bed.sim.process(proc()))
    assert vm.virtio_blk.requests == 0


def test_cold_read_pays_device_time_warm_does_not(single_host_bed):
    bed = single_host_bed
    vm = bed.vms[0]
    durations = []

    def proc():
        start = bed.sim.now
        yield from vm.virtio_blk.read(("img", 2), 0, 1 << 20)
        durations.append(bed.sim.now - start)

    bed.run(bed.sim.process(proc()))   # cold: SSD
    bed.run(bed.sim.process(proc()))   # warm: host cache
    assert durations[1] < durations[0] / 2
    assert vm.host.storage.bytes_read >= 1 << 20


def test_read_charges_qemu_io_thread(single_host_bed):
    bed = single_host_bed
    vm = bed.vms[0]
    mark = vm.host.accounting.snapshot()

    def proc():
        yield from vm.virtio_blk.read(("img", 3), 0, 256 * 1024)

    bed.run(bed.sim.process(proc()))
    window = vm.host.accounting.since(mark)
    qemu_io_busy = window.by_thread().get(vm.qemu_io.name, 0.0)
    assert qemu_io_busy > 0
    assert window.by_category().get(COPY_VIRTIO, 0) > 0


def test_write_reaches_ssd_and_warms_host_cache(single_host_bed):
    bed = single_host_bed
    vm = bed.vms[0]

    def write():
        yield from vm.virtio_blk.write(("img", 4), 0, 64 * 1024)

    bed.run(bed.sim.process(write()))
    assert vm.host.storage.bytes_written >= 64 * 1024
    assert vm.host.page_cache.contains(("img", 4), 0, 64 * 1024)
    # A subsequent read of the same range is a host-cache hit.
    ssd_reads = vm.host.storage.bytes_read

    def read():
        yield from vm.virtio_blk.read(("img", 4), 0, 64 * 1024)

    bed.run(bed.sim.process(read()))
    assert vm.host.storage.bytes_read == ssd_reads


def test_distinct_keys_do_not_share_cache(single_host_bed):
    bed = single_host_bed
    vm = bed.vms[0]

    def proc(key):
        yield from vm.virtio_blk.read(key, 0, 4096)

    bed.run(bed.sim.process(proc(("img", 5))))
    ssd_reads = vm.host.storage.bytes_read
    bed.run(bed.sim.process(proc(("img", 6))))
    assert vm.host.storage.bytes_read > ssd_reads
