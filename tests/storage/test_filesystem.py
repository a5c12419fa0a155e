"""Tests for the in-memory filesystem: namespace ops, reads, generations."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.storage.content import PatternSource
from repro.storage.filesystem import FileSystem, FsError


@pytest.fixture
def fs():
    return FileSystem()


def test_mkdir_and_listdir(fs):
    fs.mkdir("/data")
    fs.mkdir("/data/blocks")
    assert fs.listdir("/") == ["data"]
    assert fs.listdir("/data") == ["blocks"]


def test_mkdir_parents(fs):
    fs.mkdir("/a/b/c", parents=True)
    assert fs.exists("/a/b/c")
    # Idempotent with parents=True.
    fs.mkdir("/a/b/c", parents=True)


def test_mkdir_existing_without_parents_fails(fs):
    fs.mkdir("/a")
    with pytest.raises(FsError):
        fs.mkdir("/a")


def test_create_and_read(fs):
    fs.mkdir("/d")
    fs.create("/d/f", b"contents")
    assert fs.read("/d/f") == b"contents"
    assert fs.size("/d/f") == 8


def test_create_duplicate_fails(fs):
    fs.create("/f", b"x")
    with pytest.raises(FsError):
        fs.create("/f", b"y")


def test_read_with_offset_and_length(fs):
    fs.create("/f", b"0123456789")
    assert fs.read("/f", offset=3, length=4) == b"3456"
    assert fs.read("/f", offset=8) == b"89"


def test_append_extends_and_creates(fs):
    fs.append("/log", b"one")
    fs.append("/log", b"two")
    assert fs.read("/log") == b"onetwo"


def test_append_lazy_source(fs):
    pattern = PatternSource(1 << 16, seed=5)
    fs.create("/big")
    fs.append("/big", pattern)
    assert fs.size("/big") == 1 << 16
    assert fs.read("/big", 100, 32) == pattern.read(100, 32)


def test_unlink(fs):
    fs.create("/f", b"x")
    fs.unlink("/f")
    assert not fs.exists("/f")
    with pytest.raises(FsError):
        fs.unlink("/f")


def test_unlink_nonempty_dir_fails(fs):
    fs.mkdir("/d")
    fs.create("/d/f", b"x")
    with pytest.raises(FsError):
        fs.unlink("/d")
    fs.unlink("/d/f")
    fs.unlink("/d")
    assert not fs.exists("/d")


def test_rename(fs):
    fs.create("/old", b"payload")
    fs.mkdir("/dir")
    fs.rename("/old", "/dir/new")
    assert not fs.exists("/old")
    assert fs.read("/dir/new") == b"payload"


def test_rename_onto_existing_fails(fs):
    fs.create("/a", b"1")
    fs.create("/b", b"2")
    with pytest.raises(FsError):
        fs.rename("/a", "/b")


def test_lookup_errors(fs):
    with pytest.raises(FsError):
        fs.lookup("/missing")
    with pytest.raises(FsError):
        fs.lookup("relative/path")
    fs.create("/f", b"")
    with pytest.raises(FsError):
        fs.lookup("/f/child")


def test_stat(fs):
    fs.create("/f", b"abc")
    number, kind, size = fs.stat("/f")
    assert kind == "file" and size == 3 and number > 0


def test_generation_bumps_on_namespace_changes(fs):
    g0 = fs.generation
    fs.create("/f", b"x")
    g1 = fs.generation
    assert g1 > g0
    fs.rename("/f", "/g")
    assert fs.generation > g1
    before_append = fs.generation
    fs.append("/g", b"more")  # content change, not namespace change
    assert fs.generation == before_append


def test_walk_lists_everything(fs):
    fs.mkdir("/a")
    fs.create("/a/f", b"1")
    fs.create("/top", b"2")
    paths = {path for path, _ in fs.walk()}
    assert paths == {"/", "/a", "/a/f", "/top"}


def test_file_handle_read_seek_close(fs):
    # What a handle's read/seek/read did, through FileSystem.read: reads
    # at consecutive offsets, a jump, then a read past end of file clamps.
    fs.create("/f", b"0123456789")
    assert fs.read("/f", offset=0, length=4) == b"0123"
    assert fs.read("/f", offset=4, length=2) == b"45"
    assert fs.read("/f", offset=8, length=10) == b"89"
    assert fs.read("/f", offset=10, length=1) == b""


def test_read_directory_fails(fs):
    fs.mkdir("/d")
    with pytest.raises(FsError):
        fs.read("/d")


def test_truncate(fs):
    inode = fs.create("/f", b"data")
    inode.truncate()
    assert fs.size("/f") == 0
    assert fs.read("/f") == b""


@given(writes=st.lists(st.binary(min_size=1, max_size=32), min_size=1, max_size=8))
def test_appends_concatenate_in_order(writes):
    fs = FileSystem()
    fs.create("/f")
    for chunk in writes:
        fs.append("/f", chunk)
    assert fs.read("/f") == b"".join(writes)


@given(names=st.lists(
    st.text(alphabet="abcdefgh", min_size=1, max_size=6), min_size=1,
    max_size=10, unique=True))
def test_created_files_always_listed(names):
    fs = FileSystem()
    for name in names:
        fs.create(f"/{name}", b"")
    assert fs.listdir("/") == sorted(names)
