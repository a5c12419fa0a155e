"""Property-based tests for the append-only stream layer.

The golden invariants: reads round-trip appends byte-exactly at every
position, sealed extents never change, appends are atomic (never span
extents), and digests are pure functions of the append sequence.
"""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.stream import (
    ExtentPlacement,
    Stream,
    StreamError,
    StreamLayer,
)

NODES = ("dn1", "dn2", "dn3", "dn4")


def records():
    return st.lists(st.binary(min_size=0, max_size=300),
                    min_size=1, max_size=20)


@given(chunks=records(), extent_bytes=st.integers(300, 1000))
@settings(max_examples=40, deadline=None)
def test_reads_round_trip_appends(chunks, extent_bytes):
    stream = Stream("s", ExtentPlacement(NODES), extent_bytes=extent_bytes,
                    retain=True)
    for data in chunks:
        stream.append(data)
    joined = b"".join(chunks)
    assert stream.length == len(joined)
    assert stream.read(0, stream.length) == joined


@given(chunks=records(), extent_bytes=st.integers(300, 1000),
       windows=st.lists(st.tuples(st.integers(0, 5000), st.integers(0, 500)),
                        min_size=1, max_size=6))
@settings(max_examples=40, deadline=None)
def test_positional_reads_match_reference(chunks, extent_bytes, windows):
    stream = Stream("s", ExtentPlacement(NODES), extent_bytes=extent_bytes,
                    retain=True)
    for data in chunks:
        stream.append(data)
    joined = b"".join(chunks)
    for position, length in windows:
        position = position % (len(joined) + 1)
        length = min(length, len(joined) - position)
        assert stream.read(position, length) == joined[position:
                                                       position + length]


@given(chunks=records(), extent_bytes=st.integers(300, 1000))
@settings(max_examples=30, deadline=None)
def test_only_last_extent_is_open_and_sealed_extents_reject_appends(
        chunks, extent_bytes):
    stream = Stream("s", ExtentPlacement(NODES), extent_bytes=extent_bytes,
                    retain=True)
    for data in chunks:
        stream.append(data)
    for extent in stream.extents[:-1]:
        assert extent.sealed
        with pytest.raises(StreamError):
            extent.append(b"x")
    # Sealing the stream freezes the tail extent too.
    stream.seal()
    digest_before = stream.digest()
    for extent in stream.extents:
        with pytest.raises(StreamError):
            extent.append(b"x")
    assert stream.digest() == digest_before


@given(chunks=records(), extent_bytes=st.integers(300, 1000))
@settings(max_examples=30, deadline=None)
def test_appends_are_atomic_within_one_extent(chunks, extent_bytes):
    stream = Stream("s", ExtentPlacement(NODES), extent_bytes=extent_bytes,
                    retain=True)
    for data in chunks:
        index, offset = stream.append(data)
        # The record landed entirely inside extent ``index``.
        assert offset + len(data) <= stream.extents[index].limit_bytes
        assert stream.extents[index].read(offset, len(data)) == data


@given(chunks=records(), extent_bytes=st.integers(300, 1000))
@settings(max_examples=30, deadline=None)
def test_digest_is_deterministic_and_order_sensitive(chunks, extent_bytes):
    def build():
        stream = Stream("s", ExtentPlacement(NODES),
                        extent_bytes=extent_bytes, retain=True)
        for data in chunks:
            stream.append(data)
        return stream

    assert build().digest() == build().digest()
    if len(chunks) > 1 and chunks[0] != chunks[-1]:
        reordered = Stream("s", ExtentPlacement(NODES),
                           extent_bytes=extent_bytes, retain=True)
        for data in reversed(chunks):
            reordered.append(data)
        assert reordered.digest() != build().digest()


@given(sizes=st.lists(st.integers(0, 300), min_size=1, max_size=20),
       extent_bytes=st.integers(300, 1000))
@settings(max_examples=30, deadline=None)
def test_virtual_appends_track_lengths_with_flat_content(sizes, extent_bytes):
    stream = Stream("s", ExtentPlacement(NODES), extent_bytes=extent_bytes,
                    retain=False)
    for i, nbytes in enumerate(sizes):
        index, offset = stream.append_virtual(nbytes, f"r{i}".encode())
        assert offset + nbytes <= extent_bytes
    assert stream.length == sum(sizes)
    for extent in stream.extents:
        assert not extent.retained
        with pytest.raises(StreamError):
            extent.read(0, extent.length)


@given(extent_count=st.integers(1, 12),
       replication=st.integers(1, 5))
@settings(max_examples=30, deadline=None)
def test_extent_placement_is_deterministic_round_robin(extent_count,
                                                       replication):
    placement = ExtentPlacement(NODES, replication)
    effective = min(replication, len(NODES))
    for index in range(extent_count):
        targets = placement.targets(index)
        assert len(targets) == len(set(targets)) == effective
        assert targets == placement.targets(index)  # pure function
        assert targets[0] == NODES[index % len(NODES)]


@given(sizes=st.lists(st.integers(1, 64), min_size=1, max_size=15))
@settings(max_examples=25, deadline=None)
def test_layer_digest_depends_only_on_append_sequence(sizes):
    def build():
        layer = StreamLayer(NODES, replication=3, extent_bytes=128)
        for i, nbytes in enumerate(sizes):
            layer.get_or_create(f"/f{i % 3}").append_virtual(
                nbytes, f"blk_{i}".encode())
        return layer

    assert build().digest() == build().digest()


def test_virtual_append_memory_does_not_grow_per_record():
    def peak_bytes(records):
        tracemalloc.start()
        try:
            layer = StreamLayer(["dn1", "dn2", "dn3"], replication=2,
                                extent_bytes=64 << 20)
            for index in range(records):
                layer.get_or_create(f"/f{index % 16}").append_virtual(
                    4 << 10, fingerprint=index.to_bytes(8, "big"))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # 4 KB records keep the extent count tiny, so any growth is per-record
    # state, which a retain=False layer must not keep.
    assert peak_bytes(100_000) - peak_bytes(10_000) < 4 * 90_000
