"""Byte-content sources: real or lazily generated file contents.

The simulation moves *actual data* so correctness is testable end to end.
Small test files use :class:`LiteralSource` (real bytes in memory);
benchmark files of hundreds of megabytes use :class:`PatternSource`, which
generates any requested range deterministically from a seed — two reads of
the same range always return identical bytes, and the full file is never
materialized.  :meth:`ByteSource.same_bytes` verifies a read against its
written payload without synthesizing either when both are one window of
one store.

Two access styles exist on every source:

* :meth:`ByteSource.read` — returns ``bytes`` (the historical API);
* :meth:`ByteSource.readinto` — fills a caller-supplied buffer
  (``bytearray``/``memoryview``) and returns the byte count.

``readinto`` is the zero-copy data plane: a 64 MB block moves through the
host Python process with one buffer allocation instead of a
join-and-reslice per hop, and :meth:`ByteSource.checksum` streams through a
single reusable buffer (the incremental checksum).  The *simulated* copy
costs are untouched — they are the paper's subject; this is purely about
the wall-clock of the simulator process.

Each operation has one implementation.  The tests check ``read``,
``checksum`` and ``same_bytes`` against an oracle that rebuilds every
source's bytes from its definition (``tests/oracles.py``).
"""

from __future__ import annotations

import hashlib
from typing import Union

#: Streaming granularity for checksums and fallback readinto paths.
_CHUNK = 1 << 20

class ByteSource:
    """Abstract offset-addressable byte content."""

    #: True when the bytes can change after creation (the source resolves
    #: through a live file inode); such sources never memoize a digest.
    _live = False

    def __init__(self, size: int):
        if size < 0:
            raise ValueError(f"negative size {size}")
        self.size = size
        #: Memoized full-content checksum (immutable sources only).
        self._checksum_hex = None

    def read(self, offset: int, length: int) -> bytes:
        """Bytes at [offset, offset+length), clamped to the source size."""
        n = self._clamp(offset, length)
        if n == 0:
            return b""
        buf = bytearray(n)
        self.readinto(offset, buf)
        return bytes(buf)

    def readinto(self, offset: int, buf) -> int:
        """Fill ``buf`` with bytes at [offset, offset+len(buf)).

        Returns the number of bytes written (clamped at the source size).
        Subclasses override this with a no-intermediate-allocation
        implementation; the base fallback goes through :meth:`read`.
        """
        view = memoryview(buf)
        n = self._clamp(offset, len(view))
        if n:
            view[:n] = self.read(offset, n)
        return n

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
        """SHA-256 of the whole content (streamed; safe for lazy sources).

        One rule: a source that resolves to a whole store returns that
        store's memoized digest (the stored block checksum HDFS verifies
        against instead of re-hashing); any other source streams through
        one reusable buffer, and memoizes the result unless its bytes can
        change.
        """
        if self._checksum_hex is not None:
            return self._checksum_hex
        store, start = self._view_key()
        if store is not self and start == 0 and store.size == self.size \
                and isinstance(store, ByteSource):
            return store.checksum(chunk)
        digest = hashlib.sha256()
        buf = bytearray(min(chunk, max(1, self.size)))
        view = memoryview(buf)
        offset = 0
        while offset < self.size:
            n = self.readinto(offset, view[:min(chunk, self.size - offset)])
            digest.update(view[:n])
            offset += n
        if self._live:
            return digest.hexdigest()
        self._checksum_hex = digest.hexdigest()
        return self._checksum_hex

    def same_bytes(self, other: "ByteSource") -> bool:
        """True when ``self`` and ``other`` hold the same bytes now.

        The identity rule: two sources that resolve to the same window of
        one store (compared with ``is``, at call time) are equal without
        reading or hashing a byte.  Sources of different sizes are unequal;
        any other pair compares their checksums, which a store memoizes.
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

    def readinto(self, offset: int, buf) -> int:
        view = memoryview(buf)
        n = self._clamp(offset, len(view))
        view[:n] = memoryview(self._data)[offset:offset + n]
        return n

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

    def readinto(self, offset: int, buf) -> int:
        view = memoryview(buf)
        n = self._clamp(offset, len(view))
        if n == 0:
            return 0
        return self._synthesize(offset, view[:n])

    def _synthesize(self, offset: int, view) -> int:
        """Generate bytes at [offset, offset+len(view)) into ``view``."""
        n = len(view)
        sha = hashlib.sha256
        prefix = self._prefix
        block_size = self._BLOCK
        index = offset // block_size
        skip = offset - index * block_size
        pos = 0
        if skip:
            # Leading partial block.
            block = sha(prefix + b"%d" % index).digest()
            take = min(block_size - skip, n)
            view[:take] = block[skip:skip + take]
            pos = take
            index += 1
        whole = (n - pos) // block_size
        if whole:
            # Bulk of the range: C-speed join of whole digests, one copy.
            end = pos + whole * block_size
            view[pos:end] = b"".join(
                sha(prefix + b"%d" % i).digest()
                for i in range(index, index + whole))
            pos = end
            index += whole
        if pos < n:
            # Trailing partial block.
            view[pos:n] = sha(prefix + b"%d" % index).digest()[:n - pos]
        return n

    def checksum(self, chunk: int = _CHUNK) -> str:
        """Stream digests straight into the checksum (no staging buffer)."""
        if self._checksum_hex is not None:
            return self._checksum_hex
        digest = hashlib.sha256()
        sha = hashlib.sha256
        prefix = self._prefix
        blocks_per_chunk = max(1, chunk // self._BLOCK)
        full_blocks = self.size // self._BLOCK
        for start in range(0, full_blocks, blocks_per_chunk):
            stop = min(start + blocks_per_chunk, full_blocks)
            digest.update(b"".join(sha(prefix + b"%d" % i).digest()
                                   for i in range(start, stop)))
        remainder = self.size - full_blocks * self._BLOCK
        if remainder:
            digest.update(
                sha(prefix + b"%d" % full_blocks).digest()[:remainder])
        self._checksum_hex = digest.hexdigest()
        return self._checksum_hex


class ZeroSource(ByteSource):
    """All-zero content (sparse files, quick benchmark filler)."""

    _ZEROS = bytes(_CHUNK)

    def read(self, offset: int, length: int) -> bytes:
        return b"\x00" * self._clamp(offset, length)

    def readinto(self, offset: int, buf) -> int:
        view = memoryview(buf)
        n = self._clamp(offset, len(view))
        zeros = self._ZEROS
        pos = 0
        while pos < n:
            take = min(len(zeros), n - pos)
            view[pos:pos + take] = zeros[:take]
            pos += take
        return n


class ConcatSource(ByteSource):
    """Concatenation of sources (used to build files from appended writes)."""

    def __init__(self, parts):
        parts = [p for p in parts if p.size > 0]
        super().__init__(sum(p.size for p in parts))
        self._parts = parts
        self._live = any(p._live for p in parts)

    def readinto(self, offset: int, buf) -> int:
        view = memoryview(buf)
        n = self._clamp(offset, len(view))
        if n == 0:
            return 0
        written = 0
        pos = 0
        cursor = offset
        for part in self._parts:
            if written == n:
                break
            part_size = part.size
            if cursor < pos + part_size:
                inner = cursor - pos
                take = min(n - written, part_size - inner)
                part.readinto(inner, view[written:written + take])
                cursor += take
                written += take
            pos += part_size
        return n

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
        self._live = base._live

    def read(self, offset: int, length: int) -> bytes:
        n = self._clamp(offset, length)
        return self._base.read(self._offset + offset, n)

    def readinto(self, offset: int, buf) -> int:
        view = memoryview(buf)
        n = self._clamp(offset, len(view))
        return self._base.readinto(self._offset + offset, view[:n])

    def _view_key(self):
        store, start = self._base._view_key()
        return (store, start + self._offset)
