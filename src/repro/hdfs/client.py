"""DFSClient: the HDFS client library (DFSInputStream / DFSOutputStream).

The read interfaces mirror Hadoop 1.2.1's ``DFSInputStream``:

* :meth:`DfsInputStream.read` — the paper's ``read1``: sequential reads of
  at most one block per call, via a cached block connection.
* :meth:`DfsInputStream.pread` — the paper's ``read2``: positional reads
  that may span blocks (``getRangeBlock`` + per-block fetch).

``_read_block_data`` is the seam both call into; the vanilla implementation
streams from the chosen datanode over TCP.  vRead subclasses the stream in
:mod:`repro.core.integration` and overrides exactly this seam with
Algorithms 1 and 2, falling back to this implementation when no vRead
descriptor can be obtained.

Resilience (:mod:`repro.faults`): block fetches run under a per-read
deadline; each replica conversation has its own attempt budget; failed
replicas are blacklisted on the client for a while (Hadoop's dead-node
list) and passes over the replica list are separated by seeded, jittered
exponential backoff from the client's :class:`~repro.faults.retry.RetryPolicy`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from repro.faults.retry import (DeadlineExceeded, RetryPolicy,
                                call_with_deadline)
from repro.hdfs.block import Block
from repro.hdfs.config import HdfsConfig
from repro.hdfs.namenode import Namenode
from repro.hdfs.protocol import (
    Ack,
    ErrorResponse,
    HdfsProtocolError,
    OpReadBlock,
    OpWriteBlock,
    WritePacket,
)
from repro.metrics.accounting import CLIENT_APPLICATION
from repro.net.tcp import VmNetwork
from repro.storage.content import ByteSource, ConcatSource, LiteralSource, SliceSource
from repro.virt.vm import VirtualMachine

#: Packet size for write pipelines.
WRITE_PACKET_BYTES = 1 << 20


class DfsClient:
    """An HDFS client bound to one VM."""

    def __init__(self, vm: VirtualMachine, namenode: Namenode,
                 network: VmNetwork,
                 retry_policy: Optional[RetryPolicy] = None,
                 counters=None, retry_rng=None):
        self.vm = vm
        self.namenode = namenode
        self.network = network
        self.config: HdfsConfig = namenode.config
        self.retry_policy = retry_policy or RetryPolicy()
        #: Optional FaultCounters sink (wired by the cluster builder).
        self.counters = counters
        #: Seeded random.Random for backoff jitter; None = no jitter.
        self.retry_rng = retry_rng
        #: Hadoop's dead-node list: datanode id -> blacklist expiry time.
        self.dead_datanodes: Dict[str, float] = {}

    # -------------------------------------------------------------- resilience
    def blacklist(self, dn_id: str) -> None:
        """Mark a datanode dead for ``retry_policy.blacklist_seconds``."""
        self.dead_datanodes[dn_id] = (self.vm.sim.now
                                      + self.retry_policy.blacklist_seconds)

    def is_blacklisted(self, dn_id: str) -> bool:
        expiry = self.dead_datanodes.get(dn_id)
        if expiry is None:
            return False
        if self.vm.sim.now >= expiry:
            del self.dead_datanodes[dn_id]
            return False
        return True

    def count_recovery(self, name: str, **fields) -> None:
        if self.counters is not None:
            self.counters.count(name, vm=self.vm.name, **fields)

    # ------------------------------------------------------------------ files
    def open(self, path: str):
        """Generator: open ``path`` for reading; returns a DfsInputStream."""
        yield from self.namenode.rpc(self.vm)
        blocks = self.namenode.get_blocks(path)
        return self._input_stream(path, blocks)

    def _input_stream(self, path: str, blocks: List[Block]) -> "DfsInputStream":
        """Stream factory — overridden by the vRead-enabled client."""
        return DfsInputStream(self, path, blocks)

    def create(self, path: str, replication: Optional[int] = None,
               favored: Optional[Sequence[str]] = None,
               spread: bool = False, hot: bool = False):
        """Generator: create ``path`` for writing; returns a DfsOutputStream.

        ``spread=True`` lays blocks out round-robin across datanodes (the
        paper's hybrid scenario) instead of preferring the co-located one.
        ``hot=True`` marks the file as hot data: on a mixed-tier cluster
        the placement policy steers its blocks onto the fastest media.
        """
        yield from self.namenode.rpc(self.vm)
        self.namenode.create_file(path, replication, spread, hot)
        return DfsOutputStream(self, path, favored)

    def delete(self, path: str):
        """Generator: delete a file (metadata + replica block files)."""
        yield from self.namenode.rpc(self.vm)
        self.namenode.delete_file(path)

    def exists(self, path: str) -> bool:
        return self.namenode.exists(path)

    def file_length(self, path: str) -> int:
        return self.namenode.file_length(path)

    # ------------------------------------------------------------ conveniences
    def write_file(self, path: str, content: Union[bytes, ByteSource],
                   replication: Optional[int] = None,
                   favored: Optional[Sequence[str]] = None,
                   spread: bool = False, hot: bool = False):
        """Generator: create ``path`` and write ``content`` in one shot."""
        stream = yield from self.create(path, replication, favored, spread,
                                        hot)
        yield from stream.write(content)
        yield from stream.close()

    def read_file(self, path: str, request_bytes: int = 1 << 20):
        """Generator: sequentially read all of ``path``; returns a ByteSource."""
        stream = yield from self.open(path)
        pieces = []
        while True:
            piece = yield from stream.read(request_bytes)
            if piece is None:
                break
            pieces.append(piece)
        stream.close()
        return ConcatSource(pieces)


class DfsInputStream:
    """Sequential + positional reads over one HDFS file."""

    def __init__(self, client: DfsClient, path: str, blocks: List[Block]):
        self.client = client
        self.path = path
        self.blocks = blocks
        self.position = 0
        self.closed = False
        self._connections: Dict[str, object] = {}

    # ------------------------------------------------------------- geometry
    @property
    def length(self) -> int:
        return sum(block.size for block in self.blocks)

    def _block_at(self, offset: int) -> Optional[Block]:
        for block in self.blocks:
            if block.contains(offset):
                return block
        return None

    # -------------------------------------------------------------- read1
    def read(self, length: int):
        """Generator (read1): read up to ``length`` bytes at the current
        position, never crossing a block boundary.

        Returns a ByteSource, or None at EOF.
        """
        self._check_open()
        if length <= 0:
            raise HdfsProtocolError(f"read length must be positive: {length}")
        block = self._block_at(self.position)
        if block is None:
            return None
        block_offset = self.position - block.offset
        to_read = min(length, block.size - block_offset)
        data = yield from self._read_block_data(block, block_offset, to_read)
        self.position += data.size
        return data

    # -------------------------------------------------------------- read2
    def pread(self, position: int, length: int):
        """Generator (read2): positional read spanning blocks; does not move
        the stream position.  Returns a ByteSource (possibly short at EOF).
        """
        self._check_open()
        yield from self.client.namenode.rpc(self.client.vm)
        blocks = self.client.namenode.blocks_in_range(
            self.path, position, length)
        pieces = []
        remaining = length
        cursor = position
        for block in blocks:
            if remaining == 0:
                break
            start = cursor - block.offset
            bytes_to_read = min(remaining, block.size - start)
            piece = yield from self._read_block_data(block, start, bytes_to_read)
            pieces.append(piece)
            remaining -= bytes_to_read
            cursor += bytes_to_read
        return ConcatSource(pieces)

    def seek(self, position: int) -> int:
        self._check_open()
        if position < 0:
            raise HdfsProtocolError(f"negative seek {position}")
        self.position = position
        return self.position

    def skip(self, nbytes: int) -> int:
        return self.seek(self.position + nbytes)

    # ------------------------------------------------------------- data path
    def _read_block_data(self, block: Block, offset: int, length: int):
        """Generator: fetch ``length`` bytes of ``block`` — the vRead seam.

        The vanilla implementation is Hadoop's ``read_buffer``/``fetchBlock``:
        pick a replica (co-located VM preferred), stream over TCP.
        """
        return (yield from self._fetch_from_datanode(block, offset, length))

    def _fetch_from_datanode(self, block: Block, offset: int, length: int):
        """Generator: the vanilla TCP block fetch with replica failover.

        Replicas are tried in topology-preference order; a dead datanode,
        missing block file, or hung conversation fails over to the next
        replica, like Hadoop's dead-node tracking in DFSInputStream.  The
        whole fetch is bounded by the retry policy's ``read_deadline``.
        """
        return (yield from call_with_deadline(
            self.client.vm.sim,
            self._fetch_with_retries(block, offset, length),
            self.client.retry_policy.read_deadline))

    def _fetch_with_retries(self, block: Block, offset: int, length: int):
        """Generator: retry passes over the replica list with backoff."""
        client = self.client
        policy = client.retry_policy
        sim = client.vm.sim
        last_error: Optional[Exception] = None
        failures = 0
        for attempt in range(policy.max_attempts):
            if attempt > 0:
                delay = policy.backoff(attempt - 1, client.retry_rng)
                if delay > 0:
                    yield sim.timeout(delay)
            ranked = client.namenode.policy.rank_read_replicas(
                client.vm, block.locations)
            replicas = [dn for dn in ranked
                        if not client.is_blacklisted(dn)]
            if not replicas:
                # Everything blacklisted: a retry pass against the ranked
                # list beats giving up (a node may have come back).
                replicas = ranked
            for dn_id in replicas:
                try:
                    result = yield from call_with_deadline(
                        sim, self._fetch_from_one(dn_id, block, offset,
                                                  length),
                        policy.attempt_timeout)
                except (HdfsProtocolError, DeadlineExceeded) as exc:
                    last_error = exc
                    failures += 1
                    client.blacklist(dn_id)
                    # A failed/abandoned conversation poisons the cached
                    # connection; reconnect on the next attempt.
                    self._drop_connection(dn_id)
                    continue
                if failures:
                    client.count_recovery("recovery.replica-failover",
                                          block=block.name, datanode=dn_id,
                                          failures=failures)
                return result
        raise HdfsProtocolError(
            f"all replicas of {block.name} failed: {last_error}")

    def _fetch_from_one(self, dn_id: str, block: Block, offset: int,
                        length: int):
        """Generator: stream one replica's packets."""
        client = self.client
        connection = yield from self._connection(dn_id)
        yield from connection.send(
            client.vm, OpReadBlock(block.name, offset, length))
        costs = client.vm.costs
        pieces = []
        received = 0
        while received < length:
            response = yield from connection.recv(
                client.vm, copy_category=CLIENT_APPLICATION)
            if isinstance(response, ErrorResponse):
                raise HdfsProtocolError(response.message)
            # Verify this packet's checksums client-side.
            yield from client.vm.vcpu.run(
                costs.hdfs_checksum_cycles_per_byte * response.size,
                CLIENT_APPLICATION)
            pieces.append(response)
            received += response.size
        return ConcatSource(pieces)

    def _connection(self, dn_id: str):
        """Generator: per-stream cached connection to a datanode."""
        connection = self._connections.get(dn_id)
        if connection is None:
            datanode = self.client.namenode.datanode(dn_id)
            connection = yield from self.client.network.connect(
                self.client.vm, datanode.vm, self.client.config.datanode_port)
            self._connections[dn_id] = connection
        return connection

    def _drop_connection(self, dn_id: str) -> None:
        connection = self._connections.pop(dn_id, None)
        if connection is not None:
            connection.close()

    def close(self) -> None:
        self.closed = True
        for connection in self._connections.values():
            connection.close()
        self._connections.clear()

    def _check_open(self) -> None:
        if self.closed:
            raise HdfsProtocolError("stream is closed")


class DfsOutputStream:
    """Block-granular append-only writer (Hadoop's write-once discipline)."""

    def __init__(self, client: DfsClient, path: str,
                 favored: Optional[Sequence[str]] = None):
        self.client = client
        self.path = path
        self.favored = list(favored) if favored else None
        self.closed = False
        self._block: Optional[Block] = None
        self._pipeline_connection = None
        self.on_block_committed = None  # vRead hooks vRead_update here

    def write(self, content: Union[bytes, ByteSource]):
        """Generator: append ``content``, spilling into new blocks as needed."""
        self._check_open()
        source = (LiteralSource(content)
                  if isinstance(content, (bytes, bytearray)) else content)
        written = 0
        block_size = self.client.config.block_size
        while written < source.size:
            if self._block is None:
                yield from self._start_block()
            room = block_size - self._block.size
            chunk = min(room, source.size - written,
                        WRITE_PACKET_BYTES)
            payload = SliceSource(source, written, chunk)
            yield from self._send_packet(payload, last=False)
            self._block.size += chunk
            written += chunk
            if self._block.size == block_size:
                yield from self._finish_block()
        return written

    def close(self):
        """Generator: flush the final partial block and complete the file."""
        self._check_open()
        if self._block is not None:
            yield from self._finish_block()
        self.client.namenode.complete_file(self.path)
        self.closed = True

    # -------------------------------------------------------------- pipeline
    def _start_block(self):
        client = self.client
        yield from client.namenode.rpc(client.vm)
        self._block = client.namenode.allocate_block(
            self.path, client.vm, self.favored)
        first = client.namenode.datanode(self._block.locations[0])
        self._pipeline_connection = yield from client.network.connect(
            client.vm, first.vm, client.config.datanode_port)
        yield from self._pipeline_connection.send(
            client.vm,
            OpWriteBlock(self._block.name, self._block.locations[1:]))

    def _send_packet(self, payload: ByteSource, last: bool):
        yield from self._pipeline_connection.send(
            self.client.vm, WritePacket(payload, last),
            size=payload.size, copy_category=CLIENT_APPLICATION)

    def _finish_block(self):
        client = self.client
        # Empty terminal packet closes the pipeline.
        yield from self._send_packet(LiteralSource(b""), last=True)
        ack = yield from self._pipeline_connection.recv(client.vm)
        if not (isinstance(ack, Ack) and ack.ok):
            raise HdfsProtocolError(f"pipeline failed: {ack!r}")
        yield from client.namenode.rpc(client.vm)
        block = self._block
        client.namenode.commit_block(block)
        self._pipeline_connection.close()
        self._pipeline_connection = None
        self._block = None
        if self.on_block_committed is not None:
            yield from self.on_block_committed(block)

    def _check_open(self) -> None:
        if self.closed:
            raise HdfsProtocolError("stream is closed")
