"""The HDFS datanode: serves block reads and write pipelines from a VM.

Block files are plain files under ``config.data_dir`` in the datanode VM's
guest filesystem — which is what lets vRead read them straight off the disk
image.  The read path here is the **vanilla** path the paper measures: the
datanode process reads the block from its (virtual) disk and sends it back
over a TCP socket, paying every copy along the way.
"""

from __future__ import annotations

from typing import Optional

from repro.hdfs.config import HdfsConfig
from repro.hdfs.namenode import Namenode
from repro.hdfs.protocol import (
    Ack,
    ErrorResponse,
    OpReadBlock,
    OpWriteBlock,
    WritePacket,
)
from repro.metrics.accounting import OTHERS
from repro.net.tcp import ConnectionClosed, VmNetwork
from repro.sim import Interrupt
from repro.storage.device import DiskError
from repro.storage.filesystem import FsError
from repro.virt.vm import VirtualMachine


class Datanode:
    """A datanode process running inside a VM."""

    def __init__(self, datanode_id: str, vm: VirtualMachine,
                 namenode: Namenode, network: VmNetwork,
                 config: Optional[HdfsConfig] = None):
        self.datanode_id = datanode_id
        self.vm = vm
        self.namenode = namenode
        self.network = network
        self.config = config or namenode.config
        vm.guest_fs.mkdir(self.config.data_dir, parents=True)
        namenode.register_datanode(self)
        namenode.add_observer(self._on_namenode_event)
        self._listener = network.listen(vm, self.config.datanode_port)
        self.blocks_served = 0
        self.bytes_served = 0
        #: Failure injection: a stopped datanode refuses all requests.
        self.stopped = False
        #: Live per-connection handler processes, in accept order; each
        #: one removes itself when it finishes.
        self._handlers: dict = {}
        self._serve_proc = vm.sim.process(self._serve())

    def stop(self) -> None:
        """Take the datanode down (crash/decommission injection).

        Kills in-flight transfer handlers mid-stream — clients blocked on
        a half-received block hit their attempt timeout and fail over —
        and refuses new requests with an error response.
        """
        self.stopped = True
        for handler in self._handlers:
            if handler.is_alive:
                handler.interrupt("datanode crash")
        self._handlers.clear()

    def start(self) -> None:
        """Bring a stopped datanode back."""
        self.stopped = False

    def shutdown(self) -> None:
        """Tear the datanode down for good (decommission detach).

        Unlike :meth:`stop` this also kills the accept loop and releases
        the listen port, so the VM (or its name) can be retired or reused.
        """
        self.stop()
        if self._serve_proc.is_alive:
            self._serve_proc.interrupt("datanode shutdown")
        self.network.unlisten(self.vm, self.config.datanode_port)

    # ----------------------------------------------------------------- paths
    def block_path(self, block_name: str) -> str:
        return f"{self.config.data_dir}/{block_name}"

    def has_block(self, block_name: str) -> bool:
        return self.vm.guest_fs.exists(self.block_path(block_name))

    # ------------------------------------------------------------- namenode
    def _on_namenode_event(self, event: str, block, datanode_id: str) -> None:
        """Datanode-side cleanup when the namenode deletes a block."""
        if event == "delete" and datanode_id == self.datanode_id:
            path = self.block_path(block.name)
            try:
                self.vm.unlink(path)
            except FsError:
                pass

    # ------------------------------------------------------------------ serve
    def _serve(self):
        """Accept loop: one handler process per incoming connection."""
        while True:
            try:
                connection = yield from self._listener.accept()
            except Interrupt:
                # Shutdown: stop accepting for good.
                return
            handler = self.vm.sim.process(self._handle(connection))
            handler.callbacks.append(self._handler_done)
            self._handlers[handler] = None
            # Hold nothing across the next accept: a closed connection is
            # freed as soon as its handler exits.
            del connection, handler

    def _handler_done(self, handler) -> None:
        self._handlers.pop(handler, None)

    def _handle(self, connection):
        """Serve sequential requests on one connection until it closes."""
        while True:
            try:
                request = yield from connection.recv(self.vm)
                if self.stopped:
                    yield from connection.send(
                        self.vm,
                        ErrorResponse(f"datanode {self.datanode_id} is down"))
                    continue
                if isinstance(request, OpReadBlock):
                    yield from self._handle_read(connection, request)
                elif isinstance(request, OpWriteBlock):
                    yield from self._handle_write(connection, request)
                else:
                    yield from connection.send(
                        self.vm, ErrorResponse(f"bad request {request!r}"))
            except (Interrupt, ConnectionClosed):
                # Injected crash: drop the connection where it stood.  Or
                # the client closed it: the DataXceiver thread exits.
                return

    def _handle_read(self, connection, request: OpReadBlock):
        """Stream the requested range as a pipeline of data packets.

        Per-packet disk reads + sends let the disk, datanode CPU, vhost
        threads and client CPU overlap — the streaming behaviour of the
        real DataXceiver.
        """
        costs = self.vm.costs
        path = self.block_path(request.block_name)
        if not self.vm.guest_fs.exists(path):
            yield from connection.send(
                self.vm, ErrorResponse(f"no such block file: {path}"))
            return
        packet_bytes = self.config.packet_bytes
        sent = 0
        while sent < request.length:
            take = min(packet_bytes, request.length - sent)
            try:
                piece = yield from self.vm.read_file(
                    path, request.offset + sent, take, copy_category=OTHERS)
            except (FsError, DiskError) as exc:
                # Injected/modelled I/O error: report it like a failed
                # DataXceiver so the client fails over to another replica.
                yield from connection.send(self.vm, ErrorResponse(str(exc)))
                return
            # Checksum the outgoing packet (CRC32 of the packet stream).
            yield from self.vm.vcpu.run(
                costs.hdfs_checksum_cycles_per_byte * piece.size, OTHERS)
            yield from connection.send(self.vm, piece, copy_category=OTHERS)
            sent += take
        self.blocks_served += 1
        self.bytes_served += request.length

    def _handle_write(self, connection, request: OpWriteBlock):
        costs = self.vm.costs
        path = self.block_path(request.block_name)
        # A write pipeline builds the block from scratch (real datanodes
        # write to a tmp file and rename); any stale/corrupt leftover copy
        # is discarded, which matters for re-replication repairs.
        if self.vm.guest_fs.exists(path):
            inode = self.vm.guest_fs.lookup(path)
            self.vm.guest_cache.invalidate(self.vm.image.cache_key(inode))
            inode.truncate()
        downstream_conn = None
        try:
            if request.downstream:
                next_dn = self.namenode.datanode(request.downstream[0])
                downstream_conn = yield from self.network.connect(
                    self.vm, next_dn.vm, self.config.datanode_port)
                yield from downstream_conn.send(
                    self.vm, OpWriteBlock(request.block_name,
                                          request.downstream[1:]))
            while True:
                packet = yield from connection.recv(self.vm)
                if not isinstance(packet, WritePacket):
                    yield from connection.send(
                        self.vm,
                        ErrorResponse(f"expected packet, got {packet!r}"))
                    return
                if downstream_conn is not None:
                    yield from downstream_conn.send(
                        self.vm, packet, copy_category=OTHERS)
                if packet.payload.size > 0:
                    yield from self.vm.vcpu.run(
                        costs.hdfs_checksum_cycles_per_byte
                        * packet.payload.size, OTHERS)
                    yield from self.vm.write_file(path, packet.payload,
                                                  copy_category=OTHERS)
                if packet.last:
                    break
            if downstream_conn is not None:
                ack = yield from downstream_conn.recv(self.vm)
                if not (isinstance(ack, Ack) and ack.ok):
                    yield from connection.send(
                        self.vm, ErrorResponse("downstream pipeline failed"))
                    return
            yield from connection.send(self.vm, Ack(request.block_name))
        finally:
            # The downstream hop's handler exits on the FIN.
            if downstream_conn is not None:
                downstream_conn.close()

    def __repr__(self) -> str:
        return f"<Datanode {self.datanode_id} vm={self.vm.name}>"
