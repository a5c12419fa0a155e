"""End-to-end HDFS tests: write pipelines, reads, integrity, replica choice."""

import pytest

from repro.hdfs.protocol import HdfsProtocolError
from repro.storage.content import PatternSource


def write(bed, path, data, **kwargs):
    def proc():
        yield from bed.client.write_file(path, data, **kwargs)

    bed.run(bed.sim.process(proc()))


def read_all(bed, path, request_bytes=64 * 1024):
    def proc():
        source = yield from bed.client.read_file(path, request_bytes)
        return source

    return bed.run(bed.sim.process(proc()))


def test_write_then_read_roundtrip(hadoop_bed):
    payload = b"hello HDFS " * 1000
    write(hadoop_bed, "/f", payload)
    got = read_all(hadoop_bed, "/f")
    assert got.read(0, got.size) == payload


def test_multi_block_file_split_and_rejoined(hadoop_bed):
    # block_size=256KB in the fixture; write ~700KB => 3 blocks.
    payload = PatternSource(700 * 1024, seed=11)
    write(hadoop_bed, "/big", payload)
    blocks = hadoop_bed.namenode.get_blocks("/big")
    assert [b.size for b in blocks] == [256 * 1024, 256 * 1024, 188 * 1024]
    assert all(b.committed for b in blocks)
    got = read_all(hadoop_bed, "/big")
    assert got.size == payload.size
    assert got.checksum() == payload.checksum()


def test_block_files_exist_on_datanode(hadoop_bed):
    write(hadoop_bed, "/f", b"x" * 1000)
    block = hadoop_bed.namenode.get_blocks("/f")[0]
    # Co-located placement => dn1 holds the replica as a plain file.
    assert block.locations == ["dn1"]
    assert hadoop_bed.datanode1.has_block(block.name)
    path = hadoop_bed.datanode1.block_path(block.name)
    assert hadoop_bed.datanode1_vm.guest_fs.read(path) == b"x" * 1000


def test_favored_datanode_places_remotely(hadoop_bed):
    write(hadoop_bed, "/remote", b"y" * 500, favored=["dn2"])
    block = hadoop_bed.namenode.get_blocks("/remote")[0]
    assert block.locations == ["dn2"]
    assert hadoop_bed.datanode2.has_block(block.name)
    got = read_all(hadoop_bed, "/remote")
    assert got.read(0, got.size) == b"y" * 500


def test_replicated_write_reaches_both_datanodes(hadoop_bed):
    write(hadoop_bed, "/r2", b"z" * 2000, replication=2)
    block = hadoop_bed.namenode.get_blocks("/r2")[0]
    assert sorted(block.locations) == ["dn1", "dn2"]
    for datanode in (hadoop_bed.datanode1, hadoop_bed.datanode2):
        path = datanode.block_path(block.name)
        assert datanode.vm.guest_fs.read(path) == b"z" * 2000


def test_sequential_read_does_not_cross_blocks(hadoop_bed):
    write(hadoop_bed, "/f", PatternSource(300 * 1024, seed=4))

    def proc():
        stream = yield from hadoop_bed.client.open("/f")
        # Ask for 100KB starting 200KB in: block boundary at 256KB caps it.
        stream.seek(200 * 1024)
        piece = yield from stream.read(100 * 1024)
        return piece.size

    assert hadoop_bed.run(hadoop_bed.sim.process(proc())) == 56 * 1024


def test_read_at_eof_returns_none(hadoop_bed):
    write(hadoop_bed, "/f", b"abc")

    def proc():
        stream = yield from hadoop_bed.client.open("/f")
        stream.seek(3)
        return (yield from stream.read(10))

    assert hadoop_bed.run(hadoop_bed.sim.process(proc())) is None


def test_pread_spans_blocks(hadoop_bed):
    payload = PatternSource(600 * 1024, seed=9)
    write(hadoop_bed, "/f", payload)

    def proc():
        stream = yield from hadoop_bed.client.open("/f")
        # Range straddling the first block boundary.
        piece = yield from stream.pread(250 * 1024, 20 * 1024)
        return piece

    piece = hadoop_bed.run(hadoop_bed.sim.process(proc()))
    assert piece.size == 20 * 1024
    assert piece.read(0, piece.size) == payload.read(250 * 1024, 20 * 1024)


def test_pread_does_not_move_position(hadoop_bed):
    write(hadoop_bed, "/f", b"0123456789")

    def proc():
        stream = yield from hadoop_bed.client.open("/f")
        yield from stream.pread(5, 3)
        piece = yield from stream.read(4)
        return piece.read(0, 4)

    assert hadoop_bed.run(hadoop_bed.sim.process(proc())) == b"0123"


def test_seek_and_skip(hadoop_bed):
    write(hadoop_bed, "/f", b"abcdefghij")

    def proc():
        stream = yield from hadoop_bed.client.open("/f")
        stream.seek(2)
        stream.skip(3)
        piece = yield from stream.read(2)
        return piece.read(0, 2)

    assert hadoop_bed.run(hadoop_bed.sim.process(proc())) == b"fg"


def test_closed_stream_rejects_reads(hadoop_bed):
    write(hadoop_bed, "/f", b"abc")

    def proc():
        stream = yield from hadoop_bed.client.open("/f")
        stream.close()
        yield from stream.read(1)

    hadoop_bed.sim.process(proc())
    with pytest.raises(HdfsProtocolError):
        hadoop_bed.sim.run()


def test_delete_removes_replica_files(hadoop_bed):
    write(hadoop_bed, "/f", b"x" * 100)
    block = hadoop_bed.namenode.get_blocks("/f")[0]
    assert hadoop_bed.datanode1.has_block(block.name)

    def proc():
        yield from hadoop_bed.client.delete("/f")

    hadoop_bed.run(hadoop_bed.sim.process(proc()))
    assert not hadoop_bed.datanode1.has_block(block.name)
    assert not hadoop_bed.client.exists("/f")


def test_delete_drops_replica_pages_from_guest_cache(hadoop_bed):
    cache = hadoop_bed.datanode1_vm.guest_cache
    before = cache.resident_pages
    write(hadoop_bed, "/f", PatternSource(256 * 1024, seed=4),
          favored=["dn1"])
    assert cache.resident_pages > before

    def proc():
        yield from hadoop_bed.client.delete("/f")

    hadoop_bed.run(hadoop_bed.sim.process(proc()))
    assert cache.resident_pages == before


def test_remote_read_uses_the_wire(hadoop_bed):
    write(hadoop_bed, "/remote", PatternSource(256 * 1024, seed=2),
          favored=["dn2"])
    sent_before = hadoop_bed.lan.nic_of(hadoop_bed.hosts[1]).bytes_sent
    read_all(hadoop_bed, "/remote")
    sent_after = hadoop_bed.lan.nic_of(hadoop_bed.hosts[1]).bytes_sent
    assert sent_after - sent_before >= 256 * 1024


def test_colocated_read_stays_off_the_wire(hadoop_bed):
    write(hadoop_bed, "/local", PatternSource(256 * 1024, seed=3),
          favored=["dn1"])
    host1_nic = hadoop_bed.lan.nic_of(hadoop_bed.hosts[0])
    sent_before = host1_nic.bytes_sent
    read_all(hadoop_bed, "/local")
    assert host1_nic.bytes_sent - sent_before < 10_000  # metadata only


def test_file_length_matches(hadoop_bed):
    write(hadoop_bed, "/f", b"q" * 12345)
    assert hadoop_bed.client.file_length("/f") == 12345


def test_write_to_completed_file_rejected(hadoop_bed):
    write(hadoop_bed, "/f", b"abc")

    def proc():
        stream = yield from hadoop_bed.client.create("/f2")
        yield from stream.write(b"x")
        yield from stream.close()
        yield from stream.write(b"more")

    hadoop_bed.sim.process(proc())
    with pytest.raises(HdfsProtocolError):
        hadoop_bed.sim.run()
