"""Message-oriented TCP between VMs over virtio-net/vhost-net.

This models the paper's vanilla data path (Figure 1).  For every message:

* the **sender vCPU** pays a syscall, per-TSO-segment TCP transmit
  processing, and the user-buffer -> skb copy;
* the **sender VM's vhost-net thread** pays per-segment processing plus the
  per-byte copy out of the VM (straight into the co-located receiver VM, or
  into the host kernel for remote peers);
* remote peers additionally pay host network-stack cycles, the wire time on
  the physical NIC, and the receiving host's vhost-net copy into the VM;
* the **receiver vCPU** pays the virtual interrupt, per-segment TCP receive
  processing, and the kernel -> user copy on ``recv``.

Because the vhost-net threads are schedulable entities on the host's CPU
scheduler, every message crossing VMs synchronizes with up to four threads
(two vCPUs + two I/O threads) — the effect the paper's Figure 3 isolates.

Payloads are real objects (bytes / ByteSource / protocol dataclasses); the
wire size can be given explicitly for control messages.

Closing a connection ends the conversation at both ends.  The first
:meth:`TcpConnection.close` queues an end-of-stream marker (FIN) on each
direction's send queue, behind any data already queued, so that data is
still delivered in order.  The FIN costs nothing: no vCPU or vhost-net
cycles and no wire time.  Each direction's pipe forwards it to the
receive queue and exits, and a ``recv`` that takes it raises
:class:`ConnectionClosed` before charging a cycle.  A server loop blocked
in ``recv`` (the datanode's per-connection handler) therefore returns
when its client closes, instead of staying blocked for the rest of the
run.  A later ``close`` is a no-op; ``send``/``recv`` called after it
raise :class:`~repro.sim.SimulationError`.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.hostmodel.costs import CostModel
from repro.metrics.accounting import OTHERS, VHOST_NET
from repro.net.lan import Lan
from repro.sim import SimulationError, Simulator, Store
from repro.storage.content import ByteSource


def payload_size(payload: Any, explicit: Optional[int] = None) -> int:
    """Wire size of a payload: explicit, ByteSource size, or len(bytes)."""
    if explicit is not None:
        if explicit < 0:
            raise ValueError(f"negative payload size {explicit}")
        return explicit
    if isinstance(payload, ByteSource):
        return payload.size
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    if isinstance(payload, memoryview):
        return payload.nbytes
    #: Control/protocol objects default to a small header-sized message.
    return 128


class ConnectionClosed(SimulationError):
    """A ``recv`` reached the end-of-stream marker of a closed connection."""


#: End-of-stream marker queued by :meth:`TcpConnection.close`.
_FIN = object()


class _Message:
    __slots__ = ("payload", "size")

    def __init__(self, payload: Any, size: int):
        self.payload = payload
        self.size = size


class TcpListener:
    """A passive socket bound to (vm, port); yields connections on accept."""

    def __init__(self, network: "VmNetwork", vm, port: int):
        self.network = network
        self.vm = vm
        self.port = port
        self._backlog = Store(network.sim)

    def accept(self):
        """Generator: wait for and return the next :class:`TcpConnection`."""
        connection = yield self._backlog.get()
        return connection


class _Direction:
    """One direction of a connection: sender-side queue, pipe, receiver queue."""

    def __init__(self, network: "VmNetwork", sender_vm, receiver_vm,
                 inflight_messages: int):
        self.network = network
        self.sender_vm = sender_vm
        self.receiver_vm = receiver_vm
        self.tx = Store(network.sim, capacity=inflight_messages)
        # Bounded receive buffer: an unread backlog eventually blocks the
        # sender (TCP flow control).
        self.rx = Store(network.sim, capacity=inflight_messages)
        network.sim.process(self._pipe())

    def _pipe(self):
        """Move messages through vhost/LAN, preserving FIFO order."""
        costs = self.network.costs
        while True:
            message = yield self.tx.get()
            if message is _FIN:
                # Free and instant; not waiting on a full rx lets the pipe
                # exit even when nobody reads this direction any more.
                self.rx.put(_FIN)
                return
            segments = costs.segments(message.size)
            vhost_cycles = (costs.vhost_segment_cycles * segments
                            + costs.vhost_copy_cycles_per_byte * message.size)
            if self.sender_vm.host is self.receiver_vm.host:
                # Co-located: the sender's vhost-net handles the tx
                # descriptors; the receiver's vhost-net performs the single
                # inter-VM copy into the receiving guest's rx buffers.
                yield from self.sender_vm.vhost.run(
                    costs.vhost_segment_cycles * segments, VHOST_NET)
                yield from self.receiver_vm.vhost.run(vhost_cycles, VHOST_NET)
            else:
                # Out through the host kernel and the physical NIC...
                host_tx_cycles = (
                    costs.host_net_segment_cycles * segments
                    + costs.host_net_copy_cycles_per_byte * message.size)
                yield from self.sender_vm.vhost.run(
                    vhost_cycles + host_tx_cycles, VHOST_NET)
                yield from self.network.lan.transfer(
                    self.sender_vm.host, self.receiver_vm.host, message.size)
                # ...and in through the receiving host's vhost-net.
                host_rx_cycles = (
                    costs.host_net_segment_cycles * segments
                    + costs.host_net_copy_cycles_per_byte * message.size)
                recv_vhost_cycles = (
                    costs.vhost_segment_cycles * segments
                    + costs.vhost_copy_cycles_per_byte * message.size)
                yield from self.receiver_vm.vhost.run(
                    host_rx_cycles + recv_vhost_cycles, VHOST_NET)
            yield self.rx.put(message)


class TcpConnection:
    """An established, bidirectional, message-oriented TCP connection."""

    def __init__(self, network: "VmNetwork", vm_a, vm_b,
                 inflight_messages: int = 8):
        self.network = network
        self.vm_a = vm_a
        self.vm_b = vm_b
        self._directions = {
            vm_a.name: _Direction(network, vm_a, vm_b, inflight_messages),
            vm_b.name: _Direction(network, vm_b, vm_a, inflight_messages),
        }
        self.closed = False

    def _direction_from(self, vm) -> _Direction:
        try:
            direction = self._directions[vm.name]
        except KeyError:
            raise SimulationError(f"{vm.name!r} is not an endpoint")
        if direction.sender_vm is not vm:
            raise SimulationError(f"{vm.name!r} endpoint mismatch")
        return direction

    def peer_of(self, vm):
        if vm is self.vm_a:
            return self.vm_b
        if vm is self.vm_b:
            return self.vm_a
        raise SimulationError(f"{vm.name!r} is not an endpoint")

    def send(self, vm, payload: Any, size: Optional[int] = None,
             copy_category: str = OTHERS, stack_category: str = OTHERS):
        """Generator: send ``payload`` from endpoint ``vm``.

        Blocks (backpressure) when the in-flight window is full.  The
        user->kernel copy is charged to ``copy_category``, TCP processing to
        ``stack_category`` (both on the sender vCPU).
        """
        if self.closed:
            raise SimulationError("connection is closed")
        direction = self._direction_from(vm)
        costs = self.network.costs
        nbytes = payload_size(payload, size)
        segments = costs.segments(nbytes)
        stack_cycles = (costs.syscall_cycles
                        + costs.tcp_tx_segment_cycles * segments)
        yield from vm.vcpu.run(stack_cycles, stack_category)
        copy_cycles = costs.tcp_copy_cycles_per_byte * nbytes
        if copy_cycles:
            yield from vm.vcpu.run(copy_cycles, copy_category)
        yield direction.tx.put(_Message(payload, nbytes))

    def recv(self, vm, copy_category: str = OTHERS,
             stack_category: str = OTHERS):
        """Generator: receive the next message at endpoint ``vm``.

        Returns the payload object.  The kernel->user copy is charged to
        ``copy_category`` on the receiver vCPU.
        """
        if self.closed:
            raise SimulationError("connection is closed")
        peer = self.peer_of(vm)
        direction = self._directions[peer.name]
        message = yield direction.rx.get()
        if message is _FIN:
            raise ConnectionClosed("connection closed")
        costs = self.network.costs
        segments = costs.segments(message.size)
        stack_cycles = (costs.virq_cycles + costs.syscall_cycles
                        + costs.tcp_rx_segment_cycles * segments)
        yield from vm.vcpu.run(stack_cycles, stack_category)
        copy_cycles = costs.tcp_copy_cycles_per_byte * message.size
        if copy_cycles:
            yield from vm.vcpu.run(copy_cycles, copy_category)
        return message.payload

    def close(self) -> None:
        """End both directions after the data already queued (idempotent)."""
        if self.closed:
            return
        self.closed = True
        for direction in self._directions.values():
            direction.tx.put(_FIN)

    def __repr__(self) -> str:
        return f"<TcpConnection {self.vm_a.name}<->{self.vm_b.name}>"


class VmNetwork:
    """The TCP/IP service tying VMs, vhost threads, and the LAN together."""

    def __init__(self, sim: Simulator, lan: Lan,
                 costs: Optional[CostModel] = None):
        self.sim = sim
        self.lan = lan
        self.costs = costs or lan.costs
        self._listeners: dict = {}

    def listen(self, vm, port: int) -> TcpListener:
        key = (vm.name, port)
        if key in self._listeners:
            raise SimulationError(f"{vm.name}:{port} already listening")
        listener = TcpListener(self, vm, port)
        self._listeners[key] = listener
        return listener

    def unlisten(self, vm, port: int) -> None:
        """Release a listen port (server VM shut down or removed)."""
        key = (vm.name, port)
        if key not in self._listeners:
            raise SimulationError(f"{vm.name}:{port} is not listening")
        del self._listeners[key]

    def connect(self, client_vm, server_vm, port: int,
                inflight_messages: int = 8):
        """Generator: three-way handshake; returns a :class:`TcpConnection`."""
        key = (server_vm.name, port)
        try:
            listener = self._listeners[key]
        except KeyError:
            raise SimulationError(f"connection refused: {server_vm.name}:{port}")
        costs = self.costs
        yield from client_vm.vcpu.run(costs.syscall_cycles, OTHERS)
        # SYN / SYN-ACK latency: one LAN round trip for remote peers.
        if client_vm.host is not server_vm.host:
            yield self.sim.timeout(2 * costs.lan_latency)
        connection = TcpConnection(self, client_vm, server_vm,
                                   inflight_messages)
        yield listener._backlog.put(connection)
        return connection
