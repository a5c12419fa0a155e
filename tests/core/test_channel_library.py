"""Unit tests for the vRead channel, descriptors, and libvread semantics."""

import pytest

from repro.core.api import VReadError, VReadLibrary
from repro.core.channel import ChannelRequest, VReadChannel
from repro.core.descriptors import VfdHashTable, VReadDescriptor


# -------------------------------------------------------------- descriptors
def test_descriptor_identity_and_state():
    d1 = VReadDescriptor(3, "blk_1", "dn1", size=100)
    assert d1.vfd == 3
    assert d1.open and d1.offset == 0
    assert d1.size == 100


def test_vfd_hash_put_get_remove():
    table = VfdHashTable()
    descriptor = VReadDescriptor(3, "blk_7", "dn1", 10)
    assert table.get("blk_7") is None
    table.put(descriptor)
    assert table.get("blk_7") is descriptor
    assert "blk_7" in table and len(table) == 1
    assert table.remove("blk_7") is descriptor
    assert table.remove("blk_7") is None
    assert len(table) == 0


# ------------------------------------------------------------------ channel
def test_channel_chunk_count(vread_bed):
    channel = VReadChannel(vread_bed.sim, vread_bed.client_vm,
                           chunk_bytes=1 << 20)
    assert channel.chunk_count(0) == 1
    assert channel.chunk_count(1) == 1
    assert channel.chunk_count(1 << 20) == 1
    assert channel.chunk_count((1 << 20) + 1) == 2
    assert channel.chunk_count(4 << 20) == 4


def test_channel_conversations_serialize(vread_bed):
    """Two concurrent streams must not interleave ring conversations."""
    bed = vread_bed
    library = bed.manager.library_of(bed.client_vm)
    channel = library.channel
    order = []

    def conversation(tag):
        token = yield from channel.acquire()
        order.append(("begin", tag))
        yield bed.sim.timeout(0.001)
        order.append(("end", tag))
        channel.release(token)

    bed.sim.process(conversation("a"))
    bed.sim.process(conversation("b"))
    bed.sim.run()
    assert order == [("begin", "a"), ("end", "a"),
                     ("begin", "b"), ("end", "b")]


# ------------------------------------------------------------------ library
def test_vread_open_populates_hash(vread_bed):
    bed = vread_bed
    path = f"{bed.config.data_dir}/blk_500"
    bed.datanode1_vm.guest_fs.create(path, b"x" * 64)
    bed.manager.service_for(bed.hosts[0]).schedule_refresh("dn1")
    bed.sim.run()
    library = bed.manager.library_of(bed.client_vm)

    def proc():
        vfd = yield from library.vread_open("blk_500", "dn1")
        return vfd

    vfd = bed.run(bed.sim.process(proc()))
    assert vfd is not None and vfd.size == 64
    assert library.vfd_hash.get("blk_500") is vfd


def test_vread_read_returns_exact_bytes(vread_bed):
    bed = vread_bed
    payload = bytes(range(256)) * 16
    path = f"{bed.config.data_dir}/blk_501"
    bed.datanode1_vm.guest_fs.create(path, payload)
    bed.manager.service_for(bed.hosts[0]).schedule_refresh("dn1")
    bed.sim.run()
    library = bed.manager.library_of(bed.client_vm)

    def proc():
        vfd = yield from library.vread_open("blk_501", "dn1")
        piece = yield from library.vread_read(vfd, 100, 500)
        return piece.read(0, piece.size)

    assert bed.run(bed.sim.process(proc())) == payload[100:600]


def test_vread_read_clamps_at_eof(vread_bed):
    bed = vread_bed
    path = f"{bed.config.data_dir}/blk_502"
    bed.datanode1_vm.guest_fs.create(path, b"z" * 100)
    bed.manager.service_for(bed.hosts[0]).schedule_refresh("dn1")
    bed.sim.run()
    library = bed.manager.library_of(bed.client_vm)

    def proc():
        vfd = yield from library.vread_open("blk_502", "dn1")
        piece = yield from library.vread_read(vfd, 80, 1000)
        return piece.size, vfd.offset

    size, offset = bed.run(bed.sim.process(proc()))
    assert size == 20
    assert offset == 100


def test_vread_seek_and_close(vread_bed):
    bed = vread_bed
    path = f"{bed.config.data_dir}/blk_503"
    bed.datanode1_vm.guest_fs.create(path, b"q" * 50)
    bed.manager.service_for(bed.hosts[0]).schedule_refresh("dn1")
    bed.sim.run()
    library = bed.manager.library_of(bed.client_vm)

    def proc():
        vfd = yield from library.vread_open("blk_503", "dn1")
        position = yield from library.vread_seek(vfd, 25)
        assert position == 25 and vfd.offset == 25
        rc = yield from library.vread_close(vfd)
        assert rc == 0
        rc_again = yield from library.vread_close(vfd)
        assert rc_again == -1
        return vfd

    vfd = bed.run(bed.sim.process(proc()))
    assert not vfd.open
    assert library.vfd_hash.get("blk_503") is None


def test_operations_on_closed_descriptor_raise(vread_bed):
    bed = vread_bed
    path = f"{bed.config.data_dir}/blk_504"
    bed.datanode1_vm.guest_fs.create(path, b"q" * 50)
    bed.manager.service_for(bed.hosts[0]).schedule_refresh("dn1")
    bed.sim.run()
    library = bed.manager.library_of(bed.client_vm)

    def proc():
        vfd = yield from library.vread_open("blk_504", "dn1")
        yield from library.vread_close(vfd)
        yield from library.vread_read(vfd, 0, 10)

    bed.sim.process(proc())
    with pytest.raises(VReadError):
        bed.sim.run()


def test_negative_seek_rejected(vread_bed):
    bed = vread_bed
    path = f"{bed.config.data_dir}/blk_505"
    bed.datanode1_vm.guest_fs.create(path, b"q")
    bed.manager.service_for(bed.hosts[0]).schedule_refresh("dn1")
    bed.sim.run()
    library = bed.manager.library_of(bed.client_vm)

    def proc():
        vfd = yield from library.vread_open("blk_505", "dn1")
        yield from library.vread_seek(vfd, -1)

    bed.sim.process(proc())
    with pytest.raises(VReadError):
        bed.sim.run()


def test_block_deleted_between_open_and_read_raises(vread_bed):
    bed = vread_bed
    path = f"{bed.config.data_dir}/blk_506"
    bed.datanode1_vm.guest_fs.create(path, b"v" * 200)
    service = bed.manager.service_for(bed.hosts[0])
    service.schedule_refresh("dn1")
    bed.sim.run()
    library = bed.manager.library_of(bed.client_vm)

    def proc():
        vfd = yield from library.vread_open("blk_506", "dn1")
        # Delete the block file + refresh the mount behind vRead's back.
        bed.datanode1_vm.guest_fs.unlink(path)
        service.schedule_refresh("dn1")
        yield bed.sim.timeout(0.01)
        try:
            yield from library.vread_read(vfd, 0, 10)
        except VReadError:
            return "error"
        return "ok"

    assert bed.run(bed.sim.process(proc())) == "error"
