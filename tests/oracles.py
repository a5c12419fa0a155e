"""Test oracles for the byte-content plane.

:func:`expected_bytes` rebuilds a source's bytes from its definition —
a literal's data, a pattern's per-block SHA-256 digests joined and then
truncated, zeros, the join of concat or inode parts, a window of a slice
or inode range — without calling the ``read``/``checksum`` code under
test.

:func:`hashing_plane` swaps the one content shortcut out for the plain
definition: ``same_bytes`` is "same size and equal bytes" (no
view-identity rule).  ``checksum`` needs no swap: it already hashes the
source's bytes afresh on every call.  Whole experiments run under it to
show that the shortcut never changes a simulated result.
"""

import contextlib
import hashlib

import pytest

from repro.storage.content import (
    ByteSource,
    ConcatSource,
    LiteralSource,
    PatternSource,
    SliceSource,
    ZeroSource,
)
from repro.storage.filesystem import Inode, InodeRangeSource

_PATTERN_BLOCK = 32  # one SHA-256 digest per pattern block
_CHUNK = 1 << 20


def expected_bytes(source, offset=0, length=None):
    """Bytes ``[offset, offset + length)`` of ``source`` (or of a file
    ``Inode``), clamped to its size, by definition (the whole content by
    default).

    Windows recurse as windows: a file may hold a range over itself, and
    only the window it covers is ever resolved.
    """
    size = source.size
    if length is None:
        length = size
    n = max(0, min(length, size - offset))
    if n == 0:
        return b""
    if isinstance(source, (Inode, ConcatSource)):
        parts = source.parts if isinstance(source, Inode) else source._parts
        out = []
        pos = 0
        for part in parts:
            start = max(offset, pos)
            end = min(offset + n, pos + part.size)
            if start < end:
                out.append(expected_bytes(part, start - pos, end - start))
            pos += part.size
        return b"".join(out)
    if isinstance(source, LiteralSource):
        return source.data[offset:offset + n]
    if isinstance(source, PatternSource):
        first = offset // _PATTERN_BLOCK
        last = (offset + n - 1) // _PATTERN_BLOCK
        raw = b"".join(
            hashlib.sha256(b"pattern:%d:%d" % (source.seed, i)).digest()
            for i in range(first, last + 1))
        skip = offset - first * _PATTERN_BLOCK
        return raw[skip:skip + n]
    if isinstance(source, ZeroSource):
        return bytes(n)
    if isinstance(source, SliceSource):
        return expected_bytes(source._base, source._offset + offset, n)
    if isinstance(source, InodeRangeSource):
        return expected_bytes(source._inode, source._offset + offset, n)
    raise TypeError(f"no oracle for {type(source).__name__}")


def _compared_same_bytes(self, other):
    return self.size == other.size and all(
        self.read(offset, _CHUNK) == other.read(offset, _CHUNK)
        for offset in range(0, self.size, _CHUNK))


@contextlib.contextmanager
def hashing_plane():
    """Within the block, ``same_bytes`` compares the bytes: no identity
    rule."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ByteSource, "same_bytes", _compared_same_bytes)
        yield
