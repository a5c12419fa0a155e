"""Virtual disk images.

A :class:`DiskImage` is a VM's virtual drive: a raw image file living on a
host's SSD that contains a guest filesystem.  The guest accesses it through
virtio-blk; the vRead daemon accesses the same image through a read-only
:class:`~repro.storage.loopdev.LoopMount`.

Page-cache keys: the **host** page cache caches image pages under
``(image name, guest inode number, page)``; each **guest** kernel caches
file pages under ``(inode number, page)`` of its own filesystem.  Both views
name the same underlying bytes, so a block pulled in by the datanode VM's
I/O also warms the host cache that vRead later hits — matching the paper's
re-read behaviour.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.storage.filesystem import FileSystem, Inode


class DiskImage:
    """A raw VM disk image: identity + the guest filesystem inside it."""

    def __init__(self, name: str, guest_fs: Optional[FileSystem] = None):
        self.name = name
        self.guest_fs = guest_fs if guest_fs is not None else FileSystem(
            name=f"{name}-fs")
        #: Image-layer fault (snapshot-chain corruption, backing-file loss):
        #: while set, loop mounts of this image fail every lookup so the
        #: vRead path degrades and readers fail over to other replicas.
        self.faulted = False

    def set_faulted(self, faulted: bool) -> None:
        self.faulted = faulted

    def cache_key(self, inode: Inode) -> Tuple[str, int]:
        """Host-page-cache key prefix for a file inside this image."""
        return (self.name, inode.number)

    def __repr__(self) -> str:
        return f"<DiskImage {self.name} gen={self.guest_fs.generation}>"
