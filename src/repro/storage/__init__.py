"""Storage substrate: devices, page caches, filesystem, images.

Layers (bottom up):

* :class:`~repro.storage.device.StorageDevice` — a profile-driven device
  model (:func:`~repro.storage.device.make_device` builds HDD/SSD/NVMe
  tiers from a declarative :class:`~repro.storage.device.DeviceProfile`).
* :class:`~repro.storage.pagecache.PageCache` — page cache that tracks
  residency as page runs per object (LRU only when bounded); both the
  host kernel and every guest kernel own one.  Cache hits skip device time
  but still pay copy costs, which is exactly what makes the paper's re-read
  results interesting.
* :class:`~repro.storage.content.ByteSource` — real bytes
  (:class:`~repro.storage.content.LiteralSource`) or deterministic generated
  bytes (:class:`~repro.storage.content.PatternSource`), so tests verify
  end-to-end data integrity while benchmarks use GB-scale files that are
  never materialized: verify a read against its payload with
  :meth:`~repro.storage.content.ByteSource.same_bytes`.
* :class:`~repro.storage.filesystem.FileSystem` — an ext-like tree of
  inodes/dentries with read/write/append, used for guest filesystems and the
  host filesystem.
* :class:`~repro.storage.image.DiskImage` — a VM's virtual disk: a file in
  the host filesystem containing a guest filesystem.
* :class:`~repro.storage.loopdev.LoopMount` — the hypervisor-side read-only
  mount of a datanode VM's image (losetup/kpartx in the paper), with the
  dentry-cache staleness + refresh semantics vRead relies on.
"""

from repro.storage.content import ByteSource, LiteralSource, PatternSource, ZeroSource
from repro.storage.device import (
    DEVICE_PROFILES,
    DeviceProfile,
    DiskError,
    HDD_PROFILE,
    NVME_PROFILE,
    SSD_PROFILE,
    StorageDevice,
    make_device,
    resolve_profile,
)
from repro.storage.filesystem import (
    FileSystem,
    FsError,
    Inode,
)
from repro.storage.image import DiskImage
from repro.storage.loopdev import LoopMount
from repro.storage.pagecache import PageCache

__all__ = [
    "ByteSource",
    "DEVICE_PROFILES",
    "DeviceProfile",
    "DiskError",
    "DiskImage",
    "FileSystem",
    "FsError",
    "HDD_PROFILE",
    "Inode",
    "LiteralSource",
    "LoopMount",
    "NVME_PROFILE",
    "PageCache",
    "PatternSource",
    "SSD_PROFILE",
    "StorageDevice",
    "ZeroSource",
    "make_device",
    "resolve_profile",
]
