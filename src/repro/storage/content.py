"""Byte-content sources: real or lazily generated file contents.

The simulation moves *actual data* so correctness is testable end to end.
Small test files use :class:`LiteralSource` (real bytes in memory);
benchmark files of hundreds of megabytes use :class:`PatternSource`, which
generates any requested range deterministically from a seed — two reads of
the same range always return identical bytes, and the full file never needs
to be materialized.

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

``use_legacy_buffers(True)`` (or ``REPRO_LEGACY_BUFFERS=1``) routes
``read``/``checksum`` through the original ``bytes``-slicing
implementations; the property and equivalence tests use the toggle to
prove the two planes are byte-identical.
"""

from __future__ import annotations

import hashlib
import os
from typing import Union

#: Streaming granularity for checksums and fallback readinto paths.
_CHUNK = 1 << 20

_legacy_buffers = os.environ.get("REPRO_LEGACY_BUFFERS", "") not in ("", "0")


def use_legacy_buffers(enabled: bool) -> None:
    """Route read/checksum through the pre-PR3 bytes-slicing code paths."""
    global _legacy_buffers
    _legacy_buffers = bool(enabled)


def legacy_buffers_enabled() -> bool:
    """True when the legacy (join-and-slice) data plane is selected."""
    return _legacy_buffers


class legacy_buffers:
    """Context manager: temporarily select the legacy data plane."""

    def __init__(self, enabled: bool = True):
        self._enabled = enabled
        self._previous = None

    def __enter__(self) -> "legacy_buffers":
        self._previous = _legacy_buffers
        use_legacy_buffers(self._enabled)
        return self

    def __exit__(self, *exc) -> None:
        use_legacy_buffers(self._previous)


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

        One rule on the fast plane: a source that resolves to a whole
        store returns that store's memoized digest (the stored block
        checksum HDFS verifies against instead of re-hashing); any other
        source streams through one reusable buffer, and memoizes the
        result unless its bytes can change.
        """
        digest = hashlib.sha256()
        if _legacy_buffers:
            offset = 0
            while offset < self.size:
                piece = self.read(offset, min(chunk, self.size - offset))
                digest.update(piece)
                offset += len(piece)
            return digest.hexdigest()
        if self._checksum_hex is not None:
            return self._checksum_hex
        store, start = self._view_key()
        if store is not self and start == 0 and store.size == self.size \
                and isinstance(store, ByteSource):
            return store.checksum(chunk)
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
    SHA-256(seed, i).

    Synthesis is pure sha256, which dominates the wall-clock of any
    workload that streams the same payload more than once (a write pass
    plus checksum-verified read passes).  Sources up to
    ``_MATERIALIZE_CAP`` therefore materialize their content once on
    first fast-plane access and serve every later range as a memcpy; the
    buffer is shared across instances through a per-process cache keyed
    by ``(seed, size)`` (two sweep points with the same payload spec
    synthesize once).  Content is identical either way — the cache holds
    exactly the bytes the streaming synthesis produces — and the legacy
    plane (``REPRO_LEGACY_BUFFERS``) never materializes, so the
    equivalence tests keep proving byte-identity.  Larger sources keep
    the original promise: any range on demand, never the whole file.
    """

    _BLOCK = 32  # sha256 digest size

    #: Sources at or under this size serve reads from materialized bytes.
    _MATERIALIZE_CAP = 32 << 20

    #: Per-process cache budget for shared materialized content.
    _CACHE_BUDGET = 256 << 20

    _cache: "dict" = {}          # (seed, size) -> bytes, insertion-ordered
    _cache_bytes = 0

    def __init__(self, size: int, seed: int = 0):
        super().__init__(size)
        self.seed = seed
        self._prefix = f"pattern:{seed}:".encode()
        self._data = None

    def _block(self, index: int) -> bytes:
        return hashlib.sha256(self._prefix + b"%d" % index).digest()

    def _materialize(self) -> bytes:
        """Full content as one shared bytes object (synthesized once)."""
        data = self._data
        if data is not None:
            return data
        cls = PatternSource
        key = (self.seed, self.size)
        data = cls._cache.get(key)
        if data is None:
            buf = bytearray(self.size)
            self._synthesize(0, memoryview(buf))
            data = bytes(buf)
            cls._cache[key] = data
            cls._cache_bytes += len(data)
            while cls._cache_bytes > cls._CACHE_BUDGET and len(cls._cache) > 1:
                oldest = next(iter(cls._cache))
                cls._cache_bytes -= len(cls._cache.pop(oldest))
        self._data = data
        return data

    def read(self, offset: int, length: int) -> bytes:
        n = self._clamp(offset, length)
        if n == 0:
            return b""
        if _legacy_buffers:
            first = offset // self._BLOCK
            last = (offset + n - 1) // self._BLOCK
            raw = b"".join(self._block(i) for i in range(first, last + 1))
            start = offset - first * self._BLOCK
            return raw[start:start + n]
        buf = bytearray(n)
        self.readinto(offset, buf)
        return bytes(buf)

    def readinto(self, offset: int, buf) -> int:
        view = memoryview(buf)
        n = self._clamp(offset, len(view))
        if n == 0:
            return 0
        if not _legacy_buffers and self.size <= self._MATERIALIZE_CAP:
            view[:n] = memoryview(self._materialize())[offset:offset + n]
            return n
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
        if _legacy_buffers:
            return super().checksum(chunk)
        if self._checksum_hex is not None:
            return self._checksum_hex
        if self.size <= self._MATERIALIZE_CAP:
            digest = hashlib.sha256(self._materialize())
            self._checksum_hex = digest.hexdigest()
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

    def read(self, offset: int, length: int) -> bytes:
        n = self._clamp(offset, length)
        if n == 0:
            return b""
        if _legacy_buffers:
            out = []
            pos = 0
            remaining = n
            cursor = offset
            for part in self._parts:
                if remaining == 0:
                    break
                if cursor < pos + part.size:
                    inner = cursor - pos
                    take = min(remaining, part.size - inner)
                    out.append(part.read(inner, take))
                    cursor += take
                    remaining -= take
                pos += part.size
            return b"".join(out)
        buf = bytearray(n)
        self.readinto(offset, buf)
        return bytes(buf)

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
