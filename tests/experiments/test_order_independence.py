"""Results do not depend on what ran earlier in the interpreter.

Process-global state (kernel counters, inode and descriptor numbering)
must never reach a simulated result.  Three quick experiments run in one
interpreter in two opposite orders, and each must give the same
canonical JSON both times.
"""

from repro.cluster import VirtualHadoopCluster
from repro.experiments import runner
from repro.storage.content import PatternSource

NAMES = ("fig03", "scale-racks", "ablation-storage-tiers")


def _run_in_order(names):
    return {name: runner.canonical_json(runner.run_experiment(
                name, profile="quick", jobs=1, seed=0))
            for name in names}


def test_results_do_not_depend_on_run_order():
    forward = _run_in_order(NAMES)
    backward = _run_in_order(reversed(NAMES))
    assert list(backward) == list(reversed(NAMES))
    assert forward == backward


def _first_numbers():
    cluster = VirtualHadoopCluster(block_size=1 << 20, vread=True, seed=0)
    payload = PatternSource(64 * 1024, seed=1)

    def load():
        yield from cluster.write_dataset("/data", payload, favored=["dn1"])

    cluster.run(cluster.sim.process(load()))
    cluster.settle()
    fs = cluster.datanode_vms[0].image.guest_fs
    first_file = min(inode.number for _, inode in fs.walk()
                     if not inode.is_dir)
    block = cluster.namenode.get_blocks("/data")[0]
    cluster.clients.get("vread")  # attaches the client VM's library
    library = cluster.vread_manager.library_of(cluster.client_vm)

    def open_block():
        descriptor = yield from library.vread_open(block.name, "dn1")
        return descriptor

    descriptor = cluster.run(cluster.sim.process(open_block()))
    return fs.root.number, first_file, descriptor.vfd


def test_numbering_does_not_depend_on_earlier_clusters():
    # Inode numbers count per filesystem and vfds per library, so a
    # second cluster in the same interpreter numbers from the start.
    first = _first_numbers()
    assert first == _first_numbers()
    assert first[0] == 1 and first[2] == 3
