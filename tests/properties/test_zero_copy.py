"""Property tests: the content sources return the defined bytes.

The content sources and the filesystem read ranges across parts and
windows, hash what they read, and decide ``same_bytes`` by view identity
when they can.  These tests drive them with randomized source shapes and
random offset/length windows — including page- and pattern-block-aligned
boundaries — and require byte-for-byte and digest-for-digest agreement
with the join-and-slice definition of each source, which
``tests.oracles.expected_bytes`` builds without calling the code under
test.  The ``legacy`` in three test names means that definition.
"""

import hashlib

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.storage.content import (
    ConcatSource,
    LiteralSource,
    PatternSource,
    SliceSource,
    ZeroSource,
)
from repro.storage.filesystem import Inode, InodeRangeSource
from repro.storage.pagecache import PAGE_SIZE, PageCache
from tests.oracles import expected_bytes

# Offsets/lengths are drawn around the implementation's interesting edges:
# the 32-byte pattern block, the 4 KiB page, and the 1 MiB streaming chunk.
_EDGES = (0, 1, 31, 32, 33, PAGE_SIZE - 1, PAGE_SIZE, PAGE_SIZE + 1)


def _windows(size):
    values = [v for v in _EDGES if v <= size] + [size, max(0, size - 7)]
    return st.tuples(st.sampled_from(values), st.sampled_from(values))


@st.composite
def source_and_window(draw):
    kind = draw(st.sampled_from(
        ["literal", "pattern", "zero", "concat", "slice", "chunked"]))
    seed = draw(st.integers(min_value=0, max_value=2 ** 16))
    size = draw(st.integers(min_value=1, max_value=3 * PAGE_SIZE))
    if kind == "literal":
        data = bytes((seed + i * 13) % 256 for i in range(size))
        source = LiteralSource(data)
    elif kind == "pattern":
        source = PatternSource(size, seed=seed)
    elif kind == "zero":
        source = ZeroSource(size)
    elif kind == "concat":
        third = max(1, size // 3)
        source = ConcatSource([
            PatternSource(third, seed=seed),
            LiteralSource(bytes((seed + i) % 256 for i in range(third))),
            ZeroSource(size - 2 * third) if size > 2 * third
            else PatternSource(1, seed=seed + 1),
        ])
    elif kind == "slice":
        base = PatternSource(size + 64, seed=seed)
        source = SliceSource(base, draw(st.integers(0, 64)), size)
    else:
        # Adjacent slices of (a window of) one base — the shape a ring
        # read streams — exercises ConcatSource's transitive coalescing.
        base = SliceSource(PatternSource(size + 64, seed=seed),
                           draw(st.integers(0, 64)), size)
        chunk = draw(st.sampled_from([1, 7, 32, PAGE_SIZE]))
        source = ConcatSource([
            SliceSource(base, pos, min(chunk, size - pos))
            for pos in range(0, size, chunk)])
    offset, length = draw(_windows(source.size))
    return source, offset, length


@given(case=source_and_window())
@settings(max_examples=60, deadline=None)
def test_fast_read_equals_legacy_read(case):
    source, offset, length = case
    assert source.read(offset, length) == \
        expected_bytes(source, offset, length)


@given(case=source_and_window(),
       chunk=st.sampled_from([7, 32, 100, PAGE_SIZE, 1 << 20]))
@settings(max_examples=60, deadline=None)
def test_fast_checksum_equals_legacy_checksum(case, chunk):
    source, _, _ = case
    expected = hashlib.sha256(expected_bytes(source)).hexdigest()
    assert source.checksum(chunk) == expected


@st.composite
def inode_and_window(draw):
    seed = draw(st.integers(min_value=0, max_value=2 ** 16))
    n_parts = draw(st.integers(min_value=1, max_value=4))
    inode = Inode("file")
    for i in range(n_parts):
        part_size = draw(st.integers(min_value=1, max_value=PAGE_SIZE + 33))
        style = draw(st.sampled_from(["pattern", "literal", "zero"]))
        if style == "pattern":
            inode.append(PatternSource(part_size, seed=seed + i))
        elif style == "literal":
            inode.append(bytes((seed + i + j * 7) % 256
                               for j in range(part_size)))
        else:
            inode.append(ZeroSource(part_size))
    offset, length = draw(_windows(inode.size))
    return inode, offset, length


@given(case=inode_and_window())
@settings(max_examples=40, deadline=None)
def test_inode_read_across_parts_equals_legacy(case):
    inode, offset, length = case
    assert inode.read(offset, length) == expected_bytes(inode, offset, length)

    view = InodeRangeSource(inode)
    assert view.checksum() == \
        hashlib.sha256(expected_bytes(inode)).hexdigest()


@given(case=inode_and_window())
@settings(max_examples=40, deadline=None)
def test_inode_range_source_window_reads(case):
    inode, offset, length = case
    n = max(0, min(length, inode.size - offset))
    if inode.size - offset <= 0:
        return
    view = InodeRangeSource(inode, offset, inode.size - offset)
    assert view.read(0, length) == inode.read(offset, n)


# ----------------------------------------------------- digests of any layout
# A layout is a list of steps that build block files and views over them:
#   ("append", kind, file, store, a, b) appends to file ``file`` (a new one
#       when the index is past the end): kind "store" is one window of a
#       store at a random offset (non-adjacent windows), "packets" is the
#       store's next window cut into write packets (a file written across
#       several block files), "file" is a range of an earlier file (a
#       re-replicated copy: a view of views);
#   ("view", kind, index, a, b) adds a view: "range" over a file, "slice"
#       of a view, "concat" of 1-3 views (nested concats), "split" of a view
#       into slices (a file read request by request);
#   ("rewrite", file, store, a, b) truncates a file and re-appends other
#       bytes, never fewer than before, after views over it were taken.
# ``a``/``b`` pick windows (a % 3 == 0 is the whole source) and how a
# window is cut into pieces (see ``_pieces``).  Store 3 holds store 0's
# bytes as a literal: equal bytes under a different identity.
_N = 1 << 16
_steps = st.one_of(
    st.tuples(st.just("append"),
              st.sampled_from(["store", "packets", "file"]),
              st.integers(0, 3), st.integers(0, 3),
              st.integers(0, _N), st.integers(0, _N)),
    st.tuples(st.just("view"),
              st.sampled_from(["range", "slice", "concat", "split"]),
              st.integers(0, 7), st.integers(0, _N), st.integers(0, _N)),
    st.tuples(st.just("rewrite"), st.integers(0, 3), st.integers(0, 3),
              st.integers(0, _N), st.integers(0, _N)),
)


def _window(size, a, b):
    if a % 3 == 0:
        return 0, size
    offset = a % size
    return offset, 1 + b % (size - offset)


def _pieces(base, offset, n, a):
    """``base[offset:offset + n]`` cut into 1-4 slices, in order (adjacent
    windows) or permuted or repeated (non-adjacent windows that may still
    add up to the whole store)."""
    k = min(n, 1 + a % 4)
    size = n // k
    cuts = [(offset + j * size, size if j < k - 1 else n - j * size)
            for j in range(k)]
    stride = a // 4
    return [SliceSource(base, *cuts[j * stride % k]) for j in range(k)]


def _assert_digests_match_bytes(views, stores, chunk):
    contents = {}
    for source in views + stores:
        contents[id(source)] = expected_bytes(source)
        assert source.read(0, source.size) == contents[id(source)]
    for view in views:
        expected = hashlib.sha256(contents[id(view)]).hexdigest()
        assert view.checksum(chunk) == expected
    for a in views:
        for b in views + stores:
            same = contents[id(a)] == contents[id(b)]
            assert a.same_bytes(b) == same


def _play(steps, chunk):
    """Build the layout step by step; after every step each view's digest
    must equal the hash of its current bytes, and ``same_bytes`` must agree
    with comparing the bytes for every view against every view and every
    writer store; the bytes are the oracle's."""
    # Store sizes divide by 2, 3 and 4, so repeated pieces can add up to
    # a whole store.
    pattern = PatternSource(3 * PAGE_SIZE, seed=11)
    stores = [pattern,
              LiteralSource(bytes(i * 7 % 251 for i in range(PAGE_SIZE + 8))),
              ZeroSource(2 * PAGE_SIZE),
              LiteralSource(pattern.read(0, pattern.size))]
    cursors = [0] * len(stores)
    files, views = [], []
    for step in steps:
        op = step[0]
        written = [inode for inode in files if inode.size]
        if op == "append":
            _, kind, f, s, a, b = step
            if f >= len(files):
                files.append(Inode("file"))
                f = len(files) - 1
            inode = files[f]
            if kind == "file" and written:
                source = written[s % len(written)]
                inode.append(InodeRangeSource(
                    source, *_window(source.size, a, b)))
            elif kind == "packets":
                store = stores[s]
                offset = cursors[s] % store.size
                n = store.size - offset if a % 3 == 0 \
                    else 1 + b % (store.size - offset)
                cursors[s] = offset + n
                for piece in _pieces(store, offset, n, a):
                    inode.append(piece)
            else:
                store = stores[s]
                inode.append(SliceSource(store, *_window(store.size, a, b)))
        elif op == "view":
            _, kind, i, a, b = step
            if kind == "range" and written:
                inode = written[i % len(written)]
                views.append(InodeRangeSource(
                    inode, *_window(inode.size, a, b)))
            elif views and kind == "slice":
                base = views[i % len(views)]
                views.append(SliceSource(base, *_window(base.size, a, b)))
            elif views and kind == "concat":
                views.append(ConcatSource(
                    [views[(i + k) % len(views)] for k in range(1 + a % 3)]))
            elif views and kind == "split":
                base = views[i % len(views)]
                views.append(ConcatSource(_pieces(base, 0, base.size, a)))
        elif files:
            _, f, s, a, b = step
            inode = files[f % len(files)]
            old_size = inode.size
            inode.truncate()
            store = stores[s]
            inode.append(SliceSource(store, *_window(store.size, a, b)))
            if inode.size < old_size:
                inode.append(PatternSource(old_size - inode.size, seed=a))
        _assert_digests_match_bytes(views, stores, chunk)


@given(steps=st.lists(_steps, min_size=1, max_size=12),
       chunk=st.sampled_from([7, PAGE_SIZE, 1 << 20]))
@settings(max_examples=80, deadline=None)
# A view over an inode that is truncated and re-appended with other bytes
# hashes the new bytes.
@example(steps=[("append", "store", 0, 0, 1, 4),
                ("append", "store", 0, 1, 1, 4),
                ("view", "range", 0, 0, 0),
                ("view", "concat", 0, 1, 0),
                ("rewrite", 0, 0, 2, 9)],
         chunk=1 << 20)
# Repeated windows of one store that add up to its size are not the store:
# as a block file's parts, and as a concat's parts.
@example(steps=[("append", "packets", 0, 0, 9, 0),
                ("view", "range", 0, 0, 0)],
         chunk=1 << 20)
@example(steps=[("append", "store", 0, 0, 0, 0),
                ("view", "range", 0, 0, 0),
                ("view", "split", 0, 9, 0)],
         chunk=1 << 20)
# same_bytes by identity: equal-size windows of one store at different
# starts differ; a prefix window is not its whole store; equal bytes under
# different identities are equal; a view over a live inode that was
# truncated and re-appended resolves anew on every call.
@example(steps=[("append", "store", 0, 0, 1, 99),
                ("append", "store", 1, 0, 2, 99),
                ("view", "range", 0, 0, 0),
                ("view", "range", 1, 0, 0)],
         chunk=1 << 20)
@example(steps=[("append", "packets", 0, 0, 4, 99),
                ("view", "range", 0, 0, 0)],
         chunk=1 << 20)
@example(steps=[("append", "store", 0, 3, 0, 0),
                ("view", "range", 0, 0, 0)],
         chunk=1 << 20)
@example(steps=[("append", "store", 0, 0, 0, 0),
                ("view", "range", 0, 0, 0),
                ("rewrite", 0, 2, 0, 0)],
         chunk=1 << 20)
# A file that holds a range over its own earlier bytes.
@example(steps=[("append", "store", 0, 0, 0, 0),
                ("view", "range", 0, 0, 0),
                ("append", "file", 0, 0, 0, 0)],
         chunk=7)
def test_checksum_equals_hash_of_bytes_for_any_layout(steps, chunk):
    _play(steps, chunk)


# --------------------------------------------------------------- page cache
class _ReferenceLru:
    """The per-page PageCache accounting, kept as an oracle."""

    def __init__(self, capacity_pages):
        from collections import OrderedDict
        self.capacity_pages = capacity_pages
        self.pages = OrderedDict()
        self.hits = self.misses = self.evictions = 0

    def missing_bytes(self, key, offset, length):
        missing = 0
        for page in PageCache.page_span(offset, length):
            if (key, page) in self.pages:
                self.hits += 1
                self.pages.move_to_end((key, page))
            else:
                self.misses += 1
                missing += 1
        return missing * PAGE_SIZE

    def contains(self, key, offset, length):
        return all((key, page) in self.pages
                   for page in PageCache.page_span(offset, length))

    def insert(self, key, offset, length):
        for page in PageCache.page_span(offset, length):
            entry = (key, page)
            if entry in self.pages:
                self.pages.move_to_end(entry)
            else:
                self.pages[entry] = None
                if len(self.pages) > self.capacity_pages:
                    self.pages.popitem(last=False)
                    self.evictions += 1

    def invalidate(self, key):
        stale = [entry for entry in self.pages if entry[0] == key]
        for entry in stale:
            del self.pages[entry]
        return len(stale)

    def drop(self):
        self.pages.clear()


_CACHE_KEYS = ("a", "b")
# Ranges start on any of the first 48 pages and span up to 40 pages, so
# they overlap, abut and bridge one another; the sub-page jitter puts their
# ends mid-page.  Every page they can touch lies below _CACHE_DOMAIN.
_CACHE_DOMAIN = 48 + 40 + 2


@st.composite
def cache_workload(draw):
    capacity_pages = draw(st.sampled_from([1, 2, 3, 8, float("inf")]))
    n_ops = draw(st.integers(min_value=1, max_value=30))
    ops = []
    for _ in range(n_ops):
        ops.append((
            draw(st.sampled_from(["miss_then_insert", "probe", "contains",
                                  "invalidate", "drop"])),
            draw(st.sampled_from(_CACHE_KEYS)),
            draw(st.integers(0, 47)) * PAGE_SIZE
            + draw(st.sampled_from([0, 1, PAGE_SIZE - 1])),
            draw(st.integers(0, 40)) * PAGE_SIZE
            + draw(st.sampled_from([0, 1, 5])),
        ))
    return capacity_pages, ops


_P = PAGE_SIZE
_INF = float("inf")


@given(workload=cache_workload())
@settings(max_examples=60, deadline=None)
# An insert that abuts a run on its left, one that abuts a run on its
# right, one that bridges two runs, a partial overlap, and an invalidate
# followed by a re-insert of the same key.
@example(workload=(_INF, [("miss_then_insert", "a", 0, 4 * _P),
                          ("miss_then_insert", "a", 4 * _P, 4 * _P)]))
@example(workload=(_INF, [("miss_then_insert", "a", 4 * _P, 4 * _P),
                          ("miss_then_insert", "a", 0, 4 * _P)]))
@example(workload=(_INF, [("miss_then_insert", "a", 0, 4 * _P),
                          ("miss_then_insert", "a", 8 * _P, 4 * _P),
                          ("miss_then_insert", "a", 2 * _P, 8 * _P)]))
@example(workload=(_INF, [("miss_then_insert", "a", 0, 4 * _P),
                          ("miss_then_insert", "a", 2 * _P, 4 * _P)]))
@example(workload=(_INF, [("miss_then_insert", "a", 0, 4 * _P),
                          ("invalidate", "a", 0, 0),
                          ("miss_then_insert", "a", 2 * _P, 4 * _P)]))
def test_pagecache_accounting_matches_reference_lru(workload):
    """Page runs (unbounded) and the per-page LRU (bounded) match the oracle.

    Capacities of a few pages force evictions right at the LRU boundary —
    the regime where a recency-bookkeeping bug changes which page gets
    evicted and therefore every later hit/miss count.  Unbounded caches
    are checked through the public API only: per-page ``contains`` over
    the whole domain and ``resident_pages`` after every operation.
    """
    capacity_pages, ops = workload
    capacity_bytes = (float("inf") if capacity_pages == float("inf")
                      else capacity_pages * PAGE_SIZE)
    cache = PageCache(capacity_bytes=capacity_bytes)
    oracle = _ReferenceLru(capacity_pages)
    for op, key, offset, length in ops:
        if op == "contains":
            assert cache.contains(key, offset, length) == \
                oracle.contains(key, offset, length)
        elif op == "invalidate":
            assert cache.invalidate(key) == oracle.invalidate(key)
        elif op == "drop":
            cache.drop()
            oracle.drop()
        else:
            missing = cache.missing_bytes(key, offset, length)
            assert missing == oracle.missing_bytes(key, offset, length)
            if op == "miss_then_insert":
                cache.insert(key, offset, length)
                oracle.insert(key, offset, length)
        assert cache.resident_pages == len(oracle.pages)
        for page_key in _CACHE_KEYS:
            for page in range(_CACHE_DOMAIN):
                assert cache.contains(page_key, page * PAGE_SIZE, 1) == \
                    ((page_key, page) in oracle.pages)
    assert (cache.hits, cache.misses, cache.evictions) == \
        (oracle.hits, oracle.misses, oracle.evictions)
    if capacity_pages != float("inf"):
        # LRU order is only observable (and only maintained) when bounded.
        assert list(cache._pages) == list(oracle.pages)
