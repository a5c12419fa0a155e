"""A whole-file verified read resolves to the writer's payload untouched.

HDFS checks a read against the checksum stored with each block instead of
re-hashing the payload.  The simulator's analogue is
``ByteSource.same_bytes`` resolving a read result, through the block
files' parts, to the same window of the writer's source as the payload.
These tests count the bytes ``PatternSource.read`` synthesizes and the
sha256 ``update`` calls ``repro.storage.content`` issues while a
two-block file read is verified: none on the vanilla path, on vRead, or
from a replica re-replicated onto a datanode that joined after the write.
The registry's verify sites synthesize no payload byte either.
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


def _count_work(monkeypatch):
    """Count the bytes ``PatternSource.read`` synthesizes and the sha256
    ``update`` calls ``repro.storage.content`` issues."""
    counter = SimpleNamespace(synthesized=0, updates=0)
    read = PatternSource.read

    def counting_read(self, offset, length):
        data = read(self, offset, length)
        counter.synthesized += len(data)
        return data

    class CountingSha256:
        def __init__(self, *data):
            self._digest = hashlib.sha256(*data)

        def update(self, data):
            counter.updates += 1
            self._digest.update(data)

        def __getattr__(self, name):
            return getattr(self._digest, name)

    monkeypatch.setattr(PatternSource, "read", counting_read)
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
    _run(cluster, cluster.write_dataset("/f", payload))
    cluster.settle()
    blocks = cluster.namenode.get_blocks("/f")
    assert len(blocks) == 2
    if rereplicated:
        fresh = _rereplicate_onto_new_datanode(cluster)
        assert all(block.locations == [fresh] for block in blocks)
    client = cluster.clients.get(mode="vread" if vread else "vanilla")

    counter = _count_work(monkeypatch)

    def read():
        source = yield from client.read_file("/f", 64 << 10)
        return source.same_bytes(payload)

    assert _run(cluster, read())
    assert counter.synthesized == 0
    assert counter.updates == 0


# ----------------------------------------------------------- zero synthesis
def _racks():
    from repro.experiments import scale_racks
    scale_racks._measure(True, 2, 2 << 20)


def _churn():
    from repro.experiments import scale_churn
    assert scale_churn._measure(True, "migrate", 1 << 20, 1.0).reads > 0


def _chaos():
    from repro.experiments import chaos_sweep
    assert chaos_sweep.run_case(0).verified


def _demo():
    from repro.cli import main
    assert main(["demo"]) == 0


@pytest.mark.parametrize("run", [_racks, _churn, _chaos, _demo],
                         ids=["scale-racks", "scale-churn", "chaos-sweep",
                              "demo"])
def test_verified_reads_synthesize_nothing(monkeypatch, run):
    """Every verify site compares the read with its payload by view
    identity (``ByteSource.same_bytes``): both resolve to the same window
    of the writer's ``PatternSource``, so no byte of either is made."""
    counter = _count_work(monkeypatch)
    run()
    assert counter.synthesized == 0
