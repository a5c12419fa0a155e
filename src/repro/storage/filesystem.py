"""An in-memory, ext-like filesystem: inodes, directories, files.

The filesystem is a passive data structure — no simulated time passes here.
Timing and CPU costs are charged by the layers that drive it (guest kernel,
virtio-blk, the vRead daemon), which is faithful to how the real stack
divides labour.

File contents are :class:`~repro.storage.content.ByteSource` parts, so a
file can mix real bytes (tests) and generated bytes (large benchmarks).
Appends add parts; HDFS's write-once/append-only block discipline maps
directly onto this.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.storage.content import ByteSource, LiteralSource, read_parts


class FsError(OSError):
    """Filesystem errors (ENOENT, EEXIST, EISDIR, ...)."""


class Inode:
    """A file or directory."""

    __slots__ = ("number", "kind", "children", "parts", "size", "nlink")

    def __init__(self, kind: str, number: int):
        if kind not in ("file", "dir"):
            raise ValueError(f"bad inode kind {kind!r}")
        self.number = number
        self.kind = kind
        #: Directory entries (name -> Inode) for directories.
        self.children: Optional[Dict[str, "Inode"]] = {} if kind == "dir" else None
        #: Content parts for files.
        self.parts: Optional[List[ByteSource]] = [] if kind == "file" else None
        self.size = 0
        self.nlink = 1

    @property
    def is_dir(self) -> bool:
        return self.kind == "dir"

    def read(self, offset: int, length: int) -> bytes:
        """Read file bytes spanning the content parts."""
        if self.is_dir:
            raise FsError("is a directory")
        if offset < 0 or length < 0:
            raise FsError(f"negative offset/length ({offset}, {length})")
        return read_parts(self.parts, offset,
                          max(0, min(length, self.size - offset)))

    def append(self, content: Union[bytes, ByteSource]) -> None:
        """Append content (bytes or a lazy source) to the file."""
        if self.is_dir:
            raise FsError("is a directory")
        source = (LiteralSource(content)
                  if isinstance(content, (bytes, bytearray)) else content)
        if source.size == 0:
            return
        self.parts.append(source)
        self.size += source.size

    def truncate(self) -> None:
        if self.is_dir:
            raise FsError("is a directory")
        self.parts.clear()
        self.size = 0

    def __repr__(self) -> str:
        return f"<Inode #{self.number} {self.kind} size={self.size}>"


class InodeRangeSource(ByteSource):
    """A lazy :class:`ByteSource` view over a byte range of a file inode.

    Used to move file data through the simulated data plane (sockets, rings)
    without materializing it.  The size is snapshotted at creation, which is
    safe for HDFS's write-once blocks; the bytes are read live.
    """

    def __init__(self, inode: Inode, offset: int = 0,
                 size: Optional[int] = None):
        if inode.is_dir:
            raise FsError("cannot view a directory as bytes")
        if size is None:
            size = inode.size - offset
        if offset < 0 or size < 0 or offset + size > inode.size:
            raise FsError(f"range out of bounds (offset={offset}, size={size}, "
                          f"file={inode.size})")
        super().__init__(size)
        self._inode = inode
        self._offset = offset

    def read(self, offset: int, length: int) -> bytes:
        n = self._clamp(offset, length)
        return self._inode.read(self._offset + offset, n)

    def _view_key(self):
        # Resolved through the inode's parts as they are now: a range over
        # adjacent windows of one store (write packets sliced from one
        # writer source, or a re-replicated copy of such a file) is a
        # window of that store; otherwise it is a window of the inode.
        start, end = self._offset, self._offset + self.size
        window = cursor = None
        pos = 0
        for part in self._inode.parts:
            part_end = pos + part.size
            if part_end > start and pos < end:
                store, part_start = part._view_key()
                if window is None:
                    window = (store, part_start + start - pos)
                elif store is not window[0] or part_start != cursor:
                    break
                cursor = part_start + part_end - pos
            pos = part_end
            if pos >= end:
                return window or (self._inode, self._offset)
        return (self._inode, self._offset)


def _split(path: str) -> List[str]:
    if not path.startswith("/"):
        raise FsError(f"path must be absolute: {path!r}")
    return [part for part in path.split("/") if part]


class FileSystem:
    """A tree of inodes addressed by absolute paths."""

    def __init__(self, name: str = "fs"):
        self.name = name
        #: Inode numbers count up from 1 in creation order, per filesystem.
        self._inode_counter = itertools.count(1)
        self.root = self._new_inode("dir")
        #: Monotonic counter bumped on every namespace change (create/delete/
        #: rename).  LoopMount uses it to detect dentry-cache staleness.
        self.generation = 0

    def _new_inode(self, kind: str) -> Inode:
        return Inode(kind, next(self._inode_counter))

    # --------------------------------------------------------------- lookups
    def _walk(self, parts: List[str]) -> Inode:
        node = self.root
        for part in parts:
            if not node.is_dir:
                raise FsError(f"not a directory on path: {part!r}")
            try:
                node = node.children[part]
            except KeyError:
                raise FsError(f"no such file or directory: {part!r}")
        return node

    def lookup(self, path: str) -> Inode:
        """Resolve ``path`` to an inode; raises FsError if missing."""
        return self._walk(_split(path))

    def exists(self, path: str) -> bool:
        try:
            self.lookup(path)
            return True
        except FsError:
            return False

    def stat(self, path: str) -> Tuple[int, str, int]:
        """(inode number, kind, size)."""
        inode = self.lookup(path)
        return inode.number, inode.kind, inode.size

    def listdir(self, path: str) -> List[str]:
        inode = self.lookup(path)
        if not inode.is_dir:
            raise FsError(f"not a directory: {path!r}")
        return sorted(inode.children)

    def walk(self) -> Iterator[Tuple[str, Inode]]:
        """Yield (path, inode) for every entry, depth-first, root included.

        A plain data iterator, not a simulation process — hence the
        yield-discipline exemption.
        """
        stack: List[Tuple[str, Inode]] = [("/", self.root)]
        while stack:
            path, node = stack.pop()
            yield path, node  # simlint: disable=yield-discipline
            if node.is_dir:
                base = path.rstrip("/")
                for name in sorted(node.children, reverse=True):
                    stack.append((f"{base}/{name}", node.children[name]))

    # -------------------------------------------------------------- mutation
    def _parent_of(self, path: str) -> Tuple[Inode, str]:
        parts = _split(path)
        if not parts:
            raise FsError("cannot operate on the root")
        parent = self._walk(parts[:-1])
        if not parent.is_dir:
            raise FsError(f"parent is not a directory: {path!r}")
        return parent, parts[-1]

    def mkdir(self, path: str, parents: bool = False) -> Inode:
        if parents:
            node = self.root
            for part in _split(path):
                if not node.is_dir:
                    raise FsError(f"not a directory on path: {part!r}")
                if part not in node.children:
                    node.children[part] = self._new_inode("dir")
                    self.generation += 1
                node = node.children[part]
            if not node.is_dir:
                raise FsError(f"exists and is not a directory: {path!r}")
            return node
        parent, name = self._parent_of(path)
        if name in parent.children:
            raise FsError(f"already exists: {path!r}")
        inode = self._new_inode("dir")
        parent.children[name] = inode
        self.generation += 1
        return inode

    def create(self, path: str,
               content: Union[bytes, ByteSource, None] = None) -> Inode:
        """Create a file (optionally with initial content)."""
        parent, name = self._parent_of(path)
        if name in parent.children:
            raise FsError(f"already exists: {path!r}")
        inode = self._new_inode("file")
        if content is not None:
            inode.append(content)
        parent.children[name] = inode
        self.generation += 1
        return inode

    def append(self, path: str, content: Union[bytes, ByteSource]) -> Inode:
        """Append to a file, creating it if necessary."""
        try:
            inode = self.lookup(path)
        except FsError:
            return self.create(path, content)
        inode.append(content)
        return inode

    def unlink(self, path: str) -> None:
        parent, name = self._parent_of(path)
        try:
            inode = parent.children[name]
        except KeyError:
            raise FsError(f"no such file: {path!r}")
        if inode.is_dir and inode.children:
            raise FsError(f"directory not empty: {path!r}")
        del parent.children[name]
        self.generation += 1

    def rename(self, old: str, new: str) -> None:
        old_parent, old_name = self._parent_of(old)
        if old_name not in old_parent.children:
            raise FsError(f"no such file: {old!r}")
        new_parent, new_name = self._parent_of(new)
        if new_name in new_parent.children:
            raise FsError(f"target exists: {new!r}")
        new_parent.children[new_name] = old_parent.children.pop(old_name)
        self.generation += 1

    # ----------------------------------------------------------------- files
    def read(self, path: str, offset: int = 0,
             length: Optional[int] = None) -> bytes:
        inode = self.lookup(path)
        if length is None:
            length = inode.size - offset
        return inode.read(offset, length)

    def size(self, path: str) -> int:
        return self.lookup(path).size

    def __repr__(self) -> str:
        return f"<FileSystem {self.name} gen={self.generation}>"
