"""vRead-enabled HDFS client: Algorithms 1 and 2 at the DFSInputStream seam.

``VReadDfsInputStream`` re-implements the two read functions of Hadoop's
``DFSInputStream`` exactly as the paper's Algorithms 1 and 2:

* consult the vfd hash; call ``vread_open`` for unseen blocks;
* if a descriptor was obtained, read through ``vread_read``;
* otherwise fall back to the original ``read_buffer``/``fetchBlocks`` path;
* (read1 only) ``vread_close`` the descriptor once the stream's position
  reaches the end of the block.

Hadoop applications above the client are untouched: they still call
``read``/``pread``/``seek``.
"""

from __future__ import annotations

from typing import List

from repro.core.api import VReadError, VReadLibrary
from repro.hdfs.block import Block
from repro.hdfs.client import DfsClient, DfsInputStream
from repro.hdfs.namenode import Namenode
from repro.net.tcp import VmNetwork
from repro.virt.vm import VirtualMachine


class VReadDfsInputStream(DfsInputStream):
    """DFSInputStream with the vRead file-operation interface."""

    def __init__(self, client: "VReadDfsClient", path: str,
                 blocks: List[Block]):
        super().__init__(client, path, blocks)
        self.library: VReadLibrary = client.library
        self.vread_reads = 0
        self.fallback_reads = 0

    # ------------------------------------------------ Algorithms 1 & 2 core
    def _read_block_data(self, block: Block, offset: int, length: int):
        """Generator: the shared body of read1/read2 with vRead."""
        library = self.library
        descriptor = library.vfd_hash.get(block.name)
        if descriptor is None:
            datanode_id = self.client.namenode.policy.choose_read_replica(
                self.client.vm, block.locations)
            descriptor = yield from library.vread_open(block.name, datanode_id)
        if descriptor is not None and descriptor.open:
            try:
                result = yield from library.vread_read(
                    descriptor, offset, length)
            except VReadError as exc:
                # Defensive fallback: e.g. the block file vanished between
                # open and read, or the daemon stopped answering.  The
                # vanilla path re-fetches via TCP.
                self.fallback_reads += 1
                self.client.count_recovery("recovery.fallback-vanilla",
                                           block=block.name, cause=str(exc))
                return (yield from self._fetch_from_datanode(
                    block, offset, length))
            self.vread_reads += 1
            return result
        # Original method of HDFS (read_buffer / fetchBlocks).
        self.fallback_reads += 1
        self.client.count_recovery("recovery.fallback-vanilla",
                                   block=block.name, cause="no descriptor")
        return (yield from self._fetch_from_datanode(block, offset, length))

    # ------------------------------------------------------------- read1
    def read(self, length: int):
        """Generator (Algorithm 1): sequential read + close-at-block-end."""
        piece = yield from super().read(length)
        if piece is not None:
            block = self._block_at(self.position - 1)
            if block is not None and self.position == block.end_offset:
                descriptor = self.library.vfd_hash.get(block.name)
                if descriptor is not None:
                    yield from self.library.vread_close(descriptor)
        return piece

    def close(self) -> None:
        """Release TCP connections and any descriptors still in the hash."""
        for block in self.blocks:
            descriptor = self.library.vfd_hash.get(block.name)
            if descriptor is not None:
                descriptor.open = False
                self.library.vfd_hash.remove(block.name)
        super().close()


class VReadDfsClient(DfsClient):
    """A DfsClient whose streams use the vRead read path."""

    def __init__(self, vm: VirtualMachine, namenode: Namenode,
                 network: VmNetwork, library: VReadLibrary,
                 retry_policy=None, counters=None, retry_rng=None):
        super().__init__(vm, namenode, network, retry_policy=retry_policy,
                         counters=counters, retry_rng=retry_rng)
        self.library = library

    def _input_stream(self, path: str, blocks: List[Block]) -> VReadDfsInputStream:
        return VReadDfsInputStream(self, path, blocks)
