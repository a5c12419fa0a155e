"""A whole-file verified read reuses the writer's stored digest.

HDFS checks a read against the checksum stored with each block instead of
re-hashing the payload.  The simulator's analogue is
``ByteSource.checksum`` resolving a read result, through the block files'
parts, back to the writer's source and returning its memoized digest.
These tests count the sha256 ``update`` calls ``repro.storage.content``
issues while a two-block file read is checksummed: none on the vanilla
path, on vRead, or from a replica re-replicated onto a datanode that
joined after the write.
"""

import hashlib
from types import SimpleNamespace

import pytest

from repro.cluster import VirtualHadoopCluster, rack_cluster
from repro.storage import content
from repro.storage.content import PatternSource

BLOCK = 256 << 10


def _run(cluster, generator):
    return cluster.run(cluster.sim.process(generator))


def _rereplicate_onto_new_datanode(cluster):
    """Move every replica onto a datanode that joined after the write."""
    controller = cluster.membership
    _run(cluster, controller.decommission_datanode("dn2", poll_interval=0.2))
    fresh = controller.add_datanode("host1").datanode_id
    _run(cluster, controller.decommission_datanode("dn1", poll_interval=0.2))
    controller.stop_monitor()
    cluster.settle()
    return fresh


def _count_updates(monkeypatch):
    counter = SimpleNamespace(updates=0)

    class CountingSha256:
        def __init__(self, *data):
            self._digest = hashlib.sha256(*data)

        def update(self, data):
            counter.updates += 1
            self._digest.update(data)

        def __getattr__(self, name):
            return getattr(self._digest, name)

    monkeypatch.setattr(content, "hashlib",
                        SimpleNamespace(sha256=CountingSha256))
    return counter


@pytest.mark.parametrize("vread", [False, True], ids=["vanilla", "vread"])
@pytest.mark.parametrize("rereplicated", [False, True],
                         ids=["written", "rereplicated"])
def test_whole_file_verified_read_hashes_nothing(monkeypatch, vread,
                                                 rereplicated):
    cluster = VirtualHadoopCluster(block_size=BLOCK, replication=1,
                                   vread=vread,
                                   topology=rack_cluster(1, 2, clients=1))
    payload = PatternSource(2 * BLOCK, seed=5)
    stored = payload.checksum()  # the writer's digest, taken at write time
    _run(cluster, cluster.write_dataset("/f", payload))
    cluster.settle()
    blocks = cluster.namenode.get_blocks("/f")
    assert len(blocks) == 2
    if rereplicated:
        fresh = _rereplicate_onto_new_datanode(cluster)
        assert all(block.locations == [fresh] for block in blocks)
    client = cluster.clients.get(mode="vread" if vread else "vanilla")

    counter = _count_updates(monkeypatch)

    def read():
        source = yield from client.read_file("/f", 64 << 10)
        return source.checksum()

    assert _run(cluster, read()) == stored
    assert counter.updates == 0
