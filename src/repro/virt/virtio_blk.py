"""virtio-blk: the paravirtual block device between a guest and its image.

Each request the guest submits crosses the protection boundary to the qemu
I/O thread (vhost-blk is disabled on the paper's testbed, matching KVM of
that era): the I/O thread pays a fixed per-request cost, faults any pages
missing from the **host** page cache in from the SSD, then copies the data
through the virtqueue into guest memory — the first of the vanilla path's
five copies.  Completion raises a virtual interrupt on the guest vCPU.
"""

from __future__ import annotations

from typing import Hashable

from repro.hostmodel.costs import CostModel
from repro.metrics.accounting import COPY_VIRTIO, OTHERS


class VirtioBlk:
    """The virtio block device of one VM."""

    def __init__(self, vm):
        self.vm = vm
        self.requests = 0
        self.bytes_read = 0
        self.bytes_written = 0

    @property
    def _costs(self) -> CostModel:
        return self.vm.host.costs

    def read(self, cache_key: Hashable, offset: int, length: int):
        """Generator: guest reads ``length`` bytes of the object ``cache_key``
        from its virtual disk into guest memory.

        ``cache_key`` identifies the image region in the *host* page cache
        (image name + inode), so data previously read by anyone on this host
        — including the vRead daemon — is already warm.
        """
        if length <= 0:
            return
        host = self.vm.host
        costs = self._costs
        # Virtqueue kick + request handling on the qemu I/O thread.
        yield from self.vm.qemu_io.run(
            costs.virtio_blk_request_cycles, COPY_VIRTIO)
        missing = host.page_cache.missing_bytes(cache_key, offset, length)
        if missing > 0:
            yield from host.storage.read(missing, offset=offset)
            host.page_cache.insert(cache_key, offset, length)
        # Copy host page cache -> guest memory through the virtqueue.
        yield from self.vm.qemu_io.run(
            costs.virtio_blk_copy_cycles_per_byte * length, COPY_VIRTIO)
        # Completion interrupt into the guest.
        yield from self.vm.vcpu.run(costs.virq_cycles, OTHERS)
        self.requests += 1
        self.bytes_read += length

    def write(self, cache_key: Hashable, offset: int, length: int):
        """Generator: guest writes ``length`` bytes through to the image.

        Write-through for simplicity: the data lands in the host page cache
        and on the SSD before completion (the paper's write experiments are
        sequential streaming writes, where writeback reaches steady state at
        device bandwidth anyway).
        """
        if length <= 0:
            return
        host = self.vm.host
        costs = self._costs
        yield from self.vm.qemu_io.run(
            costs.virtio_blk_request_cycles, COPY_VIRTIO)
        yield from self.vm.qemu_io.run(
            costs.virtio_blk_copy_cycles_per_byte * length, COPY_VIRTIO)
        yield from host.storage.write(length, offset=offset)
        host.page_cache.insert(cache_key, offset, length)
        yield from self.vm.vcpu.run(costs.virq_cycles, OTHERS)
        self.requests += 1
        self.bytes_written += length
