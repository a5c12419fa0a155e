"""Tests for VM-to-VM TCP: delivery, ordering, cost attribution, paths."""

import gc
import weakref

import pytest

from repro.metrics.accounting import CLIENT_APPLICATION, OTHERS, VHOST_NET
from repro.net.tcp import ConnectionClosed
from repro.sim import SimulationError
from repro.storage.content import LiteralSource
from tests.conftest import Testbed


def _connect(bed, client, server, port=50010):
    listener = bed.network.listen(server, port)
    conn_holder = {}

    def server_side():
        conn = yield from listener.accept()
        conn_holder["server"] = conn

    def client_side():
        conn = yield from bed.network.connect(client, server, port)
        conn_holder["client"] = conn

    server_proc = bed.sim.process(server_side())
    bed.sim.process(client_side())
    bed.run(server_proc)
    bed.sim.run()  # drain the client side's final resumption
    # Both sides hold the same connection object.
    assert conn_holder["client"] is conn_holder["server"]
    return conn_holder["client"]


def test_send_recv_roundtrip_same_host(single_host_bed):
    bed = single_host_bed
    vm1, vm2 = bed.vms
    conn = _connect(bed, vm1, vm2)
    received = []

    def receiver():
        payload = yield from conn.recv(vm2)
        received.append(payload)

    def sender():
        yield from conn.send(vm1, b"hello hdfs")

    recv_proc = bed.sim.process(receiver())
    bed.sim.process(sender())
    bed.run(recv_proc)
    assert received == [b"hello hdfs"]


def test_messages_preserve_fifo_order(single_host_bed):
    bed = single_host_bed
    vm1, vm2 = bed.vms
    conn = _connect(bed, vm1, vm2)
    received = []

    def receiver():
        for _ in range(5):
            received.append((yield from conn.recv(vm2)))

    def sender():
        for i in range(5):
            yield from conn.send(vm1, f"msg-{i}".encode())

    recv_proc = bed.sim.process(receiver())
    bed.sim.process(sender())
    bed.run(recv_proc)
    assert received == [f"msg-{i}".encode() for i in range(5)]


def test_bytesource_payloads_pass_without_materializing(single_host_bed):
    bed = single_host_bed
    vm1, vm2 = bed.vms
    conn = _connect(bed, vm1, vm2)
    payload = LiteralSource(b"x" * 1000)

    def receiver():
        source = yield from conn.recv(vm2)
        return source

    def sender():
        yield from conn.send(vm1, payload)

    recv_proc = bed.sim.process(receiver())
    bed.sim.process(sender())
    got = bed.run(recv_proc)
    assert got is payload


def test_colocated_send_charges_both_vhost_threads(single_host_bed):
    bed = single_host_bed
    vm1, vm2 = bed.vms
    conn = _connect(bed, vm1, vm2)
    mark = bed.hosts[0].accounting.snapshot()

    def exchange():
        def sender():
            yield from conn.send(vm1, b"z" * 100_000)
        bed.sim.process(sender())
        yield from conn.recv(vm2)

    bed.run(bed.sim.process(exchange()))
    window = bed.hosts[0].accounting.since(mark)
    by_thread = window.by_thread()
    # tx descriptors on the sender's vhost; the inter-VM copy lands on the
    # receiver's vhost, so the receiver side carries the per-byte cost.
    assert by_thread.get(vm1.vhost.name, 0) > 0
    assert by_thread.get(vm2.vhost.name, 0) > by_thread[vm1.vhost.name]
    assert window.by_category().get(VHOST_NET, 0) > 0


def test_remote_send_charges_both_vhosts_and_wire_time(testbed):
    bed = testbed
    vm1 = bed.vms[0]            # host1
    vm3 = bed.vms[2]            # host2
    conn = _connect(bed, vm1, vm3)
    mark1 = bed.hosts[0].accounting.snapshot()
    mark2 = bed.hosts[1].accounting.snapshot()

    def exchange():
        def sender():
            yield from conn.send(vm1, b"z" * 500_000)
        bed.sim.process(sender())
        yield from conn.recv(vm3)

    bed.run(bed.sim.process(exchange()))
    w1 = bed.hosts[0].accounting.since(mark1).by_thread()
    w2 = bed.hosts[1].accounting.since(mark2).by_thread()
    assert w1.get(vm1.vhost.name, 0) > 0
    assert w2.get(vm3.vhost.name, 0) > 0
    assert bed.lan.nic_of(bed.hosts[0]).bytes_sent >= 500_000


def test_recv_copy_category_is_honoured(single_host_bed):
    bed = single_host_bed
    vm1, vm2 = bed.vms
    conn = _connect(bed, vm1, vm2)
    mark = bed.hosts[0].accounting.snapshot()

    def exchange():
        def sender():
            yield from conn.send(vm1, b"y" * 200_000)
        bed.sim.process(sender())
        yield from conn.recv(vm2, copy_category=CLIENT_APPLICATION)

    bed.run(bed.sim.process(exchange()))
    window = bed.hosts[0].accounting.since(mark)
    per_cat = window.by_category(threads=[vm2.vcpu.name])
    assert per_cat.get(CLIENT_APPLICATION, 0) > 0


def test_connect_to_unbound_port_refused(single_host_bed):
    bed = single_host_bed
    vm1, vm2 = bed.vms

    def proc():
        yield from bed.network.connect(vm1, vm2, 9999)

    bed.sim.process(proc())
    with pytest.raises(SimulationError, match="refused"):
        bed.sim.run()


def test_double_listen_rejected(single_host_bed):
    bed = single_host_bed
    _, vm2 = bed.vms
    bed.network.listen(vm2, 50010)
    with pytest.raises(SimulationError):
        bed.network.listen(vm2, 50010)


def test_send_after_close_rejected(single_host_bed):
    bed = single_host_bed
    vm1, vm2 = bed.vms
    conn = _connect(bed, vm1, vm2)
    conn.close()

    def proc():
        yield from conn.send(vm1, b"late")

    bed.sim.process(proc())
    with pytest.raises(SimulationError, match="closed"):
        bed.sim.run()


def test_close_is_idempotent_and_recv_after_close_rejected(single_host_bed):
    bed = single_host_bed
    vm1, vm2 = bed.vms
    conn = _connect(bed, vm1, vm2)
    conn.close()
    conn.close()  # the second close queues nothing
    bed.sim.run()
    # One FIN per direction, parked unread in the receive queue.
    assert [(len(d.tx), len(d.rx)) for d in conn._directions.values()] \
        == [(0, 1), (0, 1)]

    def proc():
        yield from conn.recv(vm2)

    bed.sim.process(proc())
    with pytest.raises(SimulationError, match="closed"):
        bed.sim.run()


def test_close_delivers_queued_data_in_order_then_fin(single_host_bed):
    bed = single_host_bed
    vm1, vm2 = bed.vms
    conn = _connect(bed, vm1, vm2)
    got = {}

    def receiver(vm, key):
        try:
            got[key] = yield from conn.recv(vm)
        except ConnectionClosed:
            got[key] = "FIN"

    # All receivers block before the close; the receive queue serves its
    # getters first come, first served.
    for key in range(3):
        bed.sim.process(receiver(vm2, key))
    bed.sim.process(receiver(vm1, "reverse"))

    def sender():
        yield from conn.send(vm1, b"first")
        yield from conn.send(vm1, b"second")
        conn.close()

    bed.sim.process(sender())
    bed.sim.run()
    assert got == {0: b"first", 1: b"second", 2: "FIN", "reverse": "FIN"}


def _exchange_costs(close):
    bed = Testbed(n_hosts=2, vms_per_host=1)
    vm1, vm2 = bed.vms
    conn = _connect(bed, vm1, vm2)

    def exchange():
        def sender():
            yield from conn.send(vm1, b"z" * 200_000)
        bed.sim.process(sender())
        yield from conn.recv(vm2)
        if close:
            conn.close()

    bed.run(bed.sim.process(exchange()))
    bed.sim.run()
    return (bed.sim.now,
            [host.accounting.by_thread() for host in bed.hosts],
            [bed.lan.nic_of(host).bytes_sent for host in bed.hosts])


def test_fin_charges_no_cpu_and_no_wire_time():
    assert _exchange_costs(close=True) == _exchange_costs(close=False)


def test_close_finishes_both_pipes_and_frees_the_connection(monkeypatch):
    # The sanitizer registers every process, which exposes the pipes.
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    bed = Testbed(n_hosts=2, vms_per_host=1)
    vm1, vm2 = bed.vms
    conn = _connect(bed, vm1, vm2)
    pipes = [p for p in bed.sim.sanitizer._processes if p.name == "_pipe"]
    assert len(pipes) == 2 and all(p.is_alive for p in pipes)
    conn.close()
    bed.sim.run()
    assert not any(p.is_alive for p in pipes)
    ref = weakref.ref(conn)
    del conn, pipes
    gc.collect()
    assert ref() is None


def test_non_endpoint_cannot_send(testbed):
    bed = testbed
    vm1, vm2, vm3 = bed.vms[:3]
    conn = _connect(bed, vm1, vm2)

    def proc():
        yield from conn.send(vm3, b"intruder")

    bed.sim.process(proc())
    with pytest.raises(SimulationError):
        bed.sim.run()


def test_backpressure_blocks_sender(single_host_bed):
    bed = single_host_bed
    vm1, vm2 = bed.vms
    conn = _connect(bed, vm1, vm2)
    sent = []

    def sender():
        # In-flight window is 8 by default; receiver never drains, so at
        # most window + a couple in the pipe can complete.
        for i in range(40):
            yield from conn.send(vm1, f"m{i}".encode())
            sent.append(i)

    bed.sim.process(sender())
    bed.sim.run()
    assert len(sent) < 40


def test_bidirectional_traffic(single_host_bed):
    bed = single_host_bed
    vm1, vm2 = bed.vms
    conn = _connect(bed, vm1, vm2)
    log = []

    def side_a():
        yield from conn.send(vm1, b"ping")
        log.append((yield from conn.recv(vm1)))

    def side_b():
        log.append((yield from conn.recv(vm2)))
        yield from conn.send(vm2, b"pong")

    proc = bed.sim.process(side_a())
    bed.sim.process(side_b())
    bed.run(proc)
    assert log == [b"ping", b"pong"]
