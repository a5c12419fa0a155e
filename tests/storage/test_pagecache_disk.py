"""Tests for the page cache and the SSD device model."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hostmodel.costs import CostModel
from repro.sim import Simulator
from repro.storage.device import make_device
from repro.storage.pagecache import PAGE_SIZE, PageCache


# ------------------------------------------------------------------ pagecache
def test_page_span():
    assert list(PageCache.page_span(0, 1)) == [0]
    assert list(PageCache.page_span(0, PAGE_SIZE)) == [0]
    assert list(PageCache.page_span(0, PAGE_SIZE + 1)) == [0, 1]
    assert list(PageCache.page_span(PAGE_SIZE - 1, 2)) == [0, 1]
    assert list(PageCache.page_span(100, 0)) == []


def test_missing_then_resident():
    cache = PageCache()
    assert cache.missing_bytes("f", 0, 8192) == 8192
    cache.insert("f", 0, 8192)
    assert cache.missing_bytes("f", 0, 8192) == 0
    assert cache.contains("f", 0, 8192)


def test_partial_residency():
    cache = PageCache()
    cache.insert("f", 0, PAGE_SIZE)  # page 0 only
    assert cache.missing_bytes("f", 0, 2 * PAGE_SIZE) == PAGE_SIZE
    assert not cache.contains("f", 0, 2 * PAGE_SIZE)


def test_keys_are_independent():
    cache = PageCache()
    cache.insert("a", 0, PAGE_SIZE)
    assert cache.missing_bytes("b", 0, PAGE_SIZE) == PAGE_SIZE


def test_lru_eviction_order():
    cache = PageCache(capacity_bytes=2 * PAGE_SIZE)
    cache.insert("f", 0, PAGE_SIZE)            # page 0
    cache.insert("f", PAGE_SIZE, PAGE_SIZE)    # page 1
    # Touch page 0 so page 1 becomes LRU.
    assert cache.missing_bytes("f", 0, PAGE_SIZE) == 0
    cache.insert("f", 2 * PAGE_SIZE, PAGE_SIZE)  # page 2 evicts page 1
    assert cache.contains("f", 0, PAGE_SIZE)
    assert not cache.contains("f", PAGE_SIZE, PAGE_SIZE)
    assert cache.contains("f", 2 * PAGE_SIZE, PAGE_SIZE)
    assert cache.evictions == 1


def test_invalidate_single_object():
    cache = PageCache()
    cache.insert("a", 0, 3 * PAGE_SIZE)
    cache.insert("b", 0, PAGE_SIZE)
    dropped = cache.invalidate("a")
    assert dropped == 3
    assert cache.contains("b", 0, PAGE_SIZE)
    assert not cache.contains("a", 0, PAGE_SIZE)


def test_drop_clears_everything():
    cache = PageCache()
    cache.insert("a", 0, PAGE_SIZE)
    cache.drop()
    assert cache.resident_pages == 0


def test_hit_miss_counters():
    cache = PageCache()
    cache.missing_bytes("f", 0, PAGE_SIZE)   # miss
    cache.insert("f", 0, PAGE_SIZE)
    cache.missing_bytes("f", 0, PAGE_SIZE)   # hit
    assert cache.misses == 1 and cache.hits == 1


def test_capacity_validation():
    with pytest.raises(ValueError):
        PageCache(capacity_bytes=0)


@given(ops=st.lists(st.tuples(st.integers(0, 63), st.integers(1, 4)),
                    min_size=1, max_size=60))
@settings(max_examples=50)
def test_cache_never_exceeds_capacity(ops):
    cache = PageCache(capacity_bytes=8 * PAGE_SIZE)
    for page, npages in ops:
        cache.insert("f", page * PAGE_SIZE, npages * PAGE_SIZE)
        assert cache.resident_pages <= 8


@given(ops=st.lists(st.tuples(st.sampled_from(["a", "b"]),
                              st.integers(0, 31)), min_size=1, max_size=60))
@settings(max_examples=50)
def test_inserted_pages_are_resident_until_evicted(ops):
    cache = PageCache()  # unbounded: nothing is ever evicted
    inserted = set()
    for key, page in ops:
        cache.insert(key, page * PAGE_SIZE, PAGE_SIZE)
        inserted.add((key, page))
    for key, page in inserted:
        assert cache.contains(key, page * PAGE_SIZE, PAGE_SIZE)


def test_unbounded_cache_state_does_not_grow_per_page():
    """64 MiB resident in 64 KiB inserts costs a few runs, not 16k entries."""
    size, chunk = 64 << 20, 64 << 10
    tracemalloc.start()
    try:
        cache = PageCache()
        for offset in range(0, size, chunk):
            cache.insert("f", offset, chunk)
        missing = sum(cache.missing_bytes("f", offset, chunk)
                      for offset in range(0, size, chunk))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cache.resident_pages == 16384
    assert missing == 0
    assert peak < 64 * 1024


# ------------------------------------------------------------------------ SSD
def test_ssd_read_time_is_latency_plus_transfer():
    sim = Simulator()
    costs = CostModel()
    ssd = make_device(sim, "ssd", costs=costs)
    nbytes = 1 << 20

    def proc():
        yield from ssd.read(nbytes)
        return sim.now

    process = sim.process(proc())
    sim.run()
    expected = costs.ssd_request_latency + nbytes / costs.ssd_bandwidth_bytes_per_sec
    assert process.value == pytest.approx(expected)
    assert ssd.bytes_read == nbytes


def test_ssd_requests_serialize():
    sim = Simulator()
    costs = CostModel()
    ssd = make_device(sim, "ssd", costs=costs)
    finish = []

    def proc():
        yield from ssd.read(1 << 20)
        finish.append(sim.now)

    sim.process(proc())
    sim.process(proc())
    sim.run()
    single = costs.ssd_request_latency + (1 << 20) / costs.ssd_bandwidth_bytes_per_sec
    assert finish[0] == pytest.approx(single)
    assert finish[1] == pytest.approx(2 * single)


def test_ssd_write_accounting():
    sim = Simulator()
    ssd = make_device(sim, "ssd")

    def proc():
        yield from ssd.write(4096)

    sim.process(proc())
    sim.run()
    assert ssd.bytes_written == 4096
    assert ssd.requests == 1


def test_ssd_negative_size_rejected():
    sim = Simulator()
    ssd = make_device(sim, "ssd")

    def proc():
        yield from ssd.read(-1)

    sim.process(proc())
    with pytest.raises(ValueError):
        sim.run()
