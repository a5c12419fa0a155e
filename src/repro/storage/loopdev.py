"""Read-only loop-device mounts of VM disk images in the hypervisor.

The paper mounts every datanode VM's virtual disk read-only into the host
(``losetup`` + ``kpartx``, ``qemu-nbd`` for qcow) so the vRead daemon can
read HDFS block files with ordinary POSIX calls.  Because the guest's
filesystem metadata is opaque to the host, **new files created by the guest
after the mount are invisible until the mount's dentry/inode cache is
refreshed** — that is exactly what ``vRead_update`` triggers via the
namenode notification path.

:class:`LoopMount` reproduces those semantics: it snapshots the guest
filesystem's namespace (paths -> inodes) at mount/refresh time; lookups are
served only from the snapshot.  File *contents* are shared structure, which
is safe because HDFS blocks are write-once (the paper's argument for why no
read/write synchronization is needed).
"""

from __future__ import annotations

from typing import Dict

from repro.storage.filesystem import FsError, Inode
from repro.storage.image import DiskImage


class LoopMount:
    """A hypervisor-side, read-only mount of a :class:`DiskImage`."""

    def __init__(self, image: DiskImage, mount_point: str):
        self.image = image
        self.mount_point = mount_point
        self._dentries: Dict[str, Inode] = {}
        self._mounted_generation = -1
        self.refresh_count = 0
        self.refresh()

    # -------------------------------------------------------------- refresh
    def refresh(self) -> int:
        """Re-scan the image's namespace (the vRead_update remount).

        Returns the number of dentries now visible.  Cheap no-op detection
        is left to the caller (the daemon) — the real system also pays the
        refresh cost whenever it is triggered.
        """
        self._dentries = {
            path: inode for path, inode in self.image.guest_fs.walk()
        }
        self._mounted_generation = self.image.guest_fs.generation
        self.refresh_count += 1
        return len(self._dentries)

    @property
    def stale(self) -> bool:
        """True if the guest changed its namespace since the last refresh."""
        return self._mounted_generation != self.image.guest_fs.generation

    # --------------------------------------------------------------- lookups
    def lookup(self, path: str) -> Inode:
        """Resolve ``path`` against the *snapshot* namespace.

        Raises :class:`FsError` for paths created after the last refresh,
        even though they exist in the live guest filesystem, and for any
        path while the underlying image is faulted.
        """
        if self.image.faulted:
            raise FsError(
                f"image {self.image.name!r} faulted; mount "
                f"{self.mount_point!r} unreadable")
        try:
            inode = self._dentries[path]
        except KeyError:
            raise FsError(
                f"{path!r} not visible through mount {self.mount_point!r} "
                f"(stale={self.stale})")
        return inode

    def exists(self, path: str) -> bool:
        return not self.image.faulted and path in self._dentries

    def read(self, path: str, offset: int, length: int) -> bytes:
        """Read file bytes through the mount (read-only)."""
        inode = self.lookup(path)
        if inode.is_dir:
            raise FsError(f"is a directory: {path!r}")
        return inode.read(offset, length)

    def size(self, path: str) -> int:
        return self.lookup(path).size

    def __repr__(self) -> str:
        return (f"<LoopMount {self.image.name} at {self.mount_point} "
                f"dentries={len(self._dentries)} stale={self.stale}>")
