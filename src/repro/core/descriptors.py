"""vRead descriptors and the block-name hash table.

HDFS only understands block names, so ``libvread`` keeps the mapping from
block name to descriptor in a user-level hash table until ``vread_close``
(paper Section 3.1) — letting subsequent read/seek calls on the same block
file reuse the descriptor.
"""

from __future__ import annotations

from typing import Dict, Optional


class VReadDescriptor:
    """An open vRead file: one HDFS block on one datanode."""

    __slots__ = ("vfd", "block_name", "datanode_id", "size", "offset", "open")

    def __init__(self, vfd: int, block_name: str, datanode_id: str,
                 size: int):
        self.vfd = vfd
        self.block_name = block_name
        self.datanode_id = datanode_id
        #: Size of the block file at open time.
        self.size = size
        #: Current file offset (moved by vread_seek / sequential reads).
        self.offset = 0
        self.open = True

    def __repr__(self) -> str:
        state = "open" if self.open else "closed"
        return (f"<VReadDescriptor #{self.vfd} {self.block_name}@"
                f"{self.datanode_id} size={self.size} {state}>")


class VfdHashTable:
    """block name -> descriptor, as kept by libvread."""

    def __init__(self) -> None:
        self._by_block: Dict[str, VReadDescriptor] = {}

    def get(self, block_name: str) -> Optional[VReadDescriptor]:
        return self._by_block.get(block_name)

    def put(self, descriptor: VReadDescriptor) -> None:
        self._by_block[descriptor.block_name] = descriptor

    def remove(self, block_name: str) -> Optional[VReadDescriptor]:
        return self._by_block.pop(block_name, None)

    def __len__(self) -> int:
        return len(self._by_block)

    def __contains__(self, block_name: str) -> bool:
        return block_name in self._by_block
