"""Virtual machines: threads, guest kernel file I/O, guest page cache.

A VM owns three schedulable threads on its host (matching KVM):

* ``vcpu`` — runs the guest: applications, guest kernel, interrupt handlers.
* ``vhost-net`` — the host-side network I/O thread (see :mod:`repro.net.tcp`).
* ``qemu-io`` — the host-side virtio-blk I/O thread.

Guest file I/O goes through :meth:`VirtualMachine.read_file` /
:meth:`~VirtualMachine.write_file`, which model the guest kernel: syscall +
filesystem work on the vCPU, guest page cache consultation, virtio-blk for
misses, and the kernel-to-user copy whose accounting category the caller
chooses (``client-application`` for HDFS clients, ``others`` for daemons).
"""

from __future__ import annotations

from typing import Hashable, Optional, Tuple, Union

from repro.hostmodel.host import PhysicalHost
from repro.metrics.accounting import DISK_READ, OTHERS
from repro.storage.content import ByteSource
from repro.storage.filesystem import FileSystem, InodeRangeSource
from repro.storage.image import DiskImage
from repro.storage.pagecache import PageCache
from repro.virt.virtio_blk import VirtioBlk


class VirtualMachine:
    """A guest VM on a physical host (1 vCPU, 2 GB RAM in the paper)."""

    def __init__(self, host: PhysicalHost, name: str,
                 image: Optional[DiskImage] = None,
                 guest_cache_bytes: float = float("inf")):
        self.host = host
        self.name = name
        self.image = image if image is not None else DiskImage(f"{name}.img")
        self.vcpu = host.scheduler.thread(f"{name}.vcpu")
        self.vhost = host.scheduler.thread(f"{name}.vhost-net")
        self.qemu_io = host.scheduler.thread(f"{name}.qemu-io")
        self.guest_cache = PageCache(guest_cache_bytes,
                                     name=f"{name}.guest-cache")
        self.virtio_blk = VirtioBlk(self)
        host.vms.append(self)

    # ------------------------------------------------------------- shortcuts
    @property
    def guest_fs(self) -> FileSystem:
        return self.image.guest_fs

    @property
    def sim(self):
        return self.host.sim

    @property
    def costs(self):
        return self.host.costs

    def thread_names(self) -> Tuple[str, str, str]:
        return (self.vcpu.name, self.vhost.name, self.qemu_io.name)

    # ------------------------------------------------------------ guest I/O
    def read_file(self, path: str, offset: int = 0,
                  length: Optional[int] = None,
                  copy_category: str = OTHERS):
        """Generator: guest reads a byte range of a file on its virtual disk.

        Returns a lazy :class:`ByteSource` over the range.  Pays: syscall +
        block-layer issue on the vCPU (``disk read``), virtio-blk for any
        pages missing from the guest cache, and the kernel->user copy on the
        vCPU charged to ``copy_category``.
        """
        inode = self.guest_fs.lookup(path)
        if length is None:
            length = max(0, inode.size - offset)
        costs = self.costs
        yield from self.vcpu.run(costs.syscall_cycles, DISK_READ)
        if length == 0:
            return InodeRangeSource(inode, offset, 0)
        key = self.image.cache_key(inode)
        missing = self.guest_cache.missing_bytes(key, offset, length)
        if missing > 0:
            # Guest block layer issues the request; data crosses virtio.
            yield from self.vcpu.run(
                costs.guest_block_layer_cycles_per_byte * length, DISK_READ)
            yield from self.virtio_blk.read(key, offset, length)
            self.guest_cache.insert(key, offset, length)
        copy_cycles = costs.guest_user_copy_cycles_per_byte * length
        yield from self.vcpu.run(copy_cycles, copy_category)
        return InodeRangeSource(inode, offset, length)

    def write_file(self, path: str, content: Union[bytes, ByteSource],
                   copy_category: str = OTHERS, sync: bool = True):
        """Generator: append ``content`` to a file (created if missing).

        Pays: the user->kernel copy on the vCPU, then (``sync=True``)
        virtio-blk write-through to the image.  Returns the file's new size.
        """
        costs = self.costs
        nbytes = content.size if isinstance(content, ByteSource) else len(content)
        yield from self.vcpu.run(costs.syscall_cycles, OTHERS)
        copy_cycles = costs.guest_user_copy_cycles_per_byte * nbytes
        yield from self.vcpu.run(copy_cycles, copy_category)
        inode = self.guest_fs.append(path, content)
        start = inode.size - nbytes
        key = self.image.cache_key(inode)
        self.guest_cache.insert(key, start, nbytes)
        if sync and nbytes > 0:
            yield from self.virtio_blk.write(key, start, nbytes)
        return inode.size

    def delete_file(self, path: str):
        """Generator: unlink a file (namespace change bumps fs generation)."""
        yield from self.vcpu.run(self.costs.syscall_cycles, OTHERS)
        self.unlink(path)

    def unlink(self, path: str) -> None:
        """Unlink a file and drop its pages from the guest page cache.

        Raises :class:`~repro.storage.filesystem.FsError` like
        :meth:`FileSystem.unlink`, leaving the cache untouched.
        """
        inode = self.guest_fs.lookup(path)
        self.guest_fs.unlink(path)
        self.guest_cache.invalidate(self.image.cache_key(inode))

    def rename_file(self, old: str, new: str):
        """Generator: rename within the guest filesystem."""
        yield from self.vcpu.run(self.costs.syscall_cycles, OTHERS)
        self.guest_fs.rename(old, new)

    # ---------------------------------------------------------------- caches
    def drop_guest_cache(self) -> None:
        """Clear the guest kernel's disk buffer (paper's cold-read prep)."""
        self.guest_cache.drop()

    def __repr__(self) -> str:
        return f"<VirtualMachine {self.name} on {self.host.name}>"
