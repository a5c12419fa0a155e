"""A closed client connection ends its datanode handler and its pipes."""

import gc
import weakref

import pytest

from repro.faults.retry import DeadlineExceeded
from repro.hdfs.protocol import HdfsProtocolError
from tests.conftest import HadoopBed


def write(bed, path, data, **kwargs):
    def proc():
        yield from bed.client.write_file(path, data, **kwargs)

    bed.run(bed.sim.process(proc()))


def open_and_read(bed, path, nbytes):
    """Open ``path``, read ``nbytes``; return the still-open stream."""
    def proc():
        stream = yield from bed.client.open(path)
        yield from stream.read(nbytes)
        return stream

    stream = bed.run(bed.sim.process(proc()))
    bed.sim.run()
    return stream


def test_close_ends_handler_and_pipes_and_frees_connection(monkeypatch):
    # The sanitizer registers every process, which exposes the pipes.
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    bed = HadoopBed()
    write(bed, "/f", b"x" * 4096)
    first = len(bed.sim.sanitizer._processes)
    stream = open_and_read(bed, "/f", 1024)
    opened = bed.sim.sanitizer._processes[first:]
    pipes = [p for p in opened if p.name == "_pipe"]
    (handler,) = bed.datanode1._handlers
    assert len(pipes) == 2 and handler.is_alive
    ref = weakref.ref(stream._connections["dn1"])

    stream.close()
    bed.sim.run()
    assert not handler.is_alive
    assert not any(p.is_alive for p in pipes)
    assert not bed.datanode1._handlers
    del stream, opened, pipes, handler
    gc.collect()
    assert ref() is None


def test_handler_registry_stays_bounded_over_many_reads(hadoop_bed):
    bed = hadoop_bed
    write(bed, "/f", b"y" * 4096)
    for _ in range(20):
        def proc():
            yield from bed.client.read_file("/f")

        bed.run(bed.sim.process(proc()))
        assert len(bed.datanode1._handlers) <= 1
    bed.sim.run()
    assert not bed.datanode1._handlers


def test_write_pipeline_closes_its_downstream_hop():
    bed = HadoopBed(replication=2)
    write(bed, "/r2", b"z" * 4096)
    bed.sim.run()
    block = bed.namenode.get_blocks("/r2")[0]
    assert len(block.locations) == 2
    # Both the client's hop and the first datanode's downstream hop closed.
    assert not bed.datanode1._handlers
    assert not bed.datanode2._handlers


def test_stop_interrupts_an_idle_handler_on_an_open_connection(hadoop_bed):
    bed = hadoop_bed
    write(bed, "/f", b"q" * 4096)
    stream = open_and_read(bed, "/f", 1024)
    connection = stream._connections["dn1"]
    (handler,) = bed.datanode1._handlers
    bed.datanode1.stop()
    bed.sim.run()
    assert not handler.is_alive
    assert not connection.closed
    # The request on the open connection finds no handler: it times out.
    start = bed.sim.now

    def proc():
        yield from stream.read(1024)

    bed.sim.process(proc())
    with pytest.raises((HdfsProtocolError, DeadlineExceeded)):
        bed.sim.run()
    assert bed.sim.now - start >= bed.client.retry_policy.attempt_timeout
