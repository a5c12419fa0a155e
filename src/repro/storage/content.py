"""Byte-content sources: real or lazily generated file contents.

The simulation moves *actual data* so correctness is testable end to end.
Small test files use :class:`LiteralSource` (real bytes in memory);
benchmark files of hundreds of megabytes use :class:`PatternSource`, which
generates any requested range deterministically from a seed — two reads of
the same range always return identical bytes, and the full file is never
materialized.  :meth:`ByteSource.same_bytes` verifies a read against its
written payload without synthesizing either when both are one window of
one store.

Every source has one read path, :meth:`ByteSource.read`, and
:meth:`ByteSource.checksum` is the SHA-256 of what it returns.  How the
host process moves these bytes is not modelled: the simulated copy costs
are charged by the layers that move them.  The tests check ``read``,
``checksum`` and ``same_bytes`` against an oracle that rebuilds every
source's bytes from its definition (``tests/oracles.py``).
"""

from __future__ import annotations

import hashlib
from typing import Sequence, Union

#: Streaming granularity for checksums.
_CHUNK = 1 << 20


def read_parts(parts: Sequence["ByteSource"], offset: int,
               length: int) -> bytes:
    """Bytes at [offset, offset+length) of the concatenation of ``parts``.

    The caller clamps the range to the parts' total size.
    """
    out = []
    end = offset + length
    pos = 0
    for part in parts:
        if pos >= end:
            break
        part_end = pos + part.size
        if part_end > offset:
            start = max(offset, pos)
            out.append(part.read(start - pos, min(end, part_end) - start))
        pos = part_end
    return b"".join(out)


class ByteSource:
    """Abstract offset-addressable byte content."""

    def __init__(self, size: int):
        if size < 0:
            raise ValueError(f"negative size {size}")
        self.size = size

    def read(self, offset: int, length: int) -> bytes:
        """Bytes at [offset, offset+length), clamped to the source size."""
        raise NotImplementedError

    def _clamp(self, offset: int, length: int) -> int:
        if offset < 0 or length < 0:
            raise ValueError(f"negative offset/length ({offset}, {length})")
        return max(0, min(length, self.size - offset))

    # ------------------------------------------------------- view coalescing
    def _view_key(self):
        """``(store, absolute offset)``: this source is the window of
        ``store`` that starts at that offset and spans ``self.size`` bytes.

        A store (a source that is no window) answers ``(self, 0)``.  Views
        resolve transitively and at call time, so a slice of an inode range
        over packets sliced from one writer source, or a concat of adjacent
        such windows, all map to the writer source itself.
        """
        return (self, 0)

    def checksum(self, chunk: int = _CHUNK) -> str:
        """SHA-256 of the whole content, read ``chunk`` bytes at a time."""
        digest = hashlib.sha256()
        for offset in range(0, self.size, chunk):
            digest.update(self.read(offset, chunk))
        return digest.hexdigest()

    def same_bytes(self, other: "ByteSource") -> bool:
        """True when ``self`` and ``other`` hold the same bytes now.

        The identity rule: two sources that resolve to the same window of
        one store (compared with ``is``, at call time) are equal without
        reading or hashing a byte.  Sources of different sizes are unequal;
        any other pair compares their checksums.
        """
        if self.size != other.size:
            return False
        store, start = self._view_key()
        other_store, other_start = other._view_key()
        if store is other_store and start == other_start:
            return True
        return self.checksum() == other.checksum()


class LiteralSource(ByteSource):
    """Content backed by real bytes in memory."""

    def __init__(self, data: Union[bytes, bytearray, memoryview]):
        super().__init__(len(data))
        self._data = bytes(data)

    def read(self, offset: int, length: int) -> bytes:
        n = self._clamp(offset, length)
        return self._data[offset:offset + n]

    @property
    def data(self) -> bytes:
        return self._data


class PatternSource(ByteSource):
    """Deterministic pseudo-random content generated on demand.

    The byte at absolute position ``i`` depends only on ``(seed, i)``, so any
    sub-range can be generated independently: block ``i`` of 32 bytes is
    SHA-256(seed, i).  Any range is synthesized on demand and the whole
    file never is, so a verified read compares sources with
    :meth:`ByteSource.same_bytes` instead of hashing their bytes.
    """

    _BLOCK = 32  # sha256 digest size

    def __init__(self, size: int, seed: int = 0):
        super().__init__(size)
        self.seed = seed
        self._prefix = f"pattern:{seed}:".encode()

    def read(self, offset: int, length: int) -> bytes:
        n = self._clamp(offset, length)
        if n == 0:
            return b""
        sha = hashlib.sha256
        prefix = self._prefix
        first = offset // self._BLOCK
        last = (offset + n - 1) // self._BLOCK
        blocks = b"".join(sha(prefix + b"%d" % i).digest()
                          for i in range(first, last + 1))
        skip = offset - first * self._BLOCK
        return blocks[skip:skip + n]


class ZeroSource(ByteSource):
    """All-zero content (sparse files, quick benchmark filler)."""

    def read(self, offset: int, length: int) -> bytes:
        return bytes(self._clamp(offset, length))


class ConcatSource(ByteSource):
    """Concatenation of sources (used to build files from appended writes)."""

    def __init__(self, parts):
        parts = [p for p in parts if p.size > 0]
        super().__init__(sum(p.size for p in parts))
        self._parts = parts

    def read(self, offset: int, length: int) -> bytes:
        return read_parts(self._parts, offset, self._clamp(offset, length))

    def _view_key(self):
        # Parts that are adjacent windows of one store (a block streamed
        # packet by packet, a file read request by request) are one window.
        window = cursor = None
        for part in self._parts:
            store, part_start = part._view_key()
            if window is None:
                window = (store, part_start)
            elif store is not window[0] or part_start != cursor:
                return (self, 0)
            cursor = part_start + part.size
        return window or (self, 0)


class SliceSource(ByteSource):
    """A window into another source (used for HDFS block carving)."""

    def __init__(self, base: ByteSource, offset: int, size: int):
        if offset < 0 or offset + size > base.size:
            raise ValueError("slice out of range")
        super().__init__(size)
        self._base = base
        self._offset = offset

    def read(self, offset: int, length: int) -> bytes:
        n = self._clamp(offset, length)
        return self._base.read(self._offset + offset, n)

    def _view_key(self):
        store, start = self._base._view_key()
        return (store, start + self._offset)
