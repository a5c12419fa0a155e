"""HDFS blocks: identity, naming, and location metadata."""

from __future__ import annotations

from typing import List

BlockId = int


class Block:
    """One HDFS block: a chunk of a file stored as a plain file on datanodes.

    ``name`` follows Hadoop's ``blk_<id>`` convention; the block file lives
    at ``<data_dir>/<name>`` inside every replica datanode's filesystem.
    """

    __slots__ = ("block_id", "file_path", "index", "offset", "size",
                 "locations", "committed")

    def __init__(self, block_id: BlockId, file_path: str, index: int,
                 offset: int):
        self.block_id = block_id
        #: HDFS path of the file this block belongs to.
        self.file_path = file_path
        #: Position of this block within the file (0-based).
        self.index = index
        #: Byte offset of the block's first byte within the file.
        self.offset = offset
        #: Bytes currently in the block (grows while under construction).
        self.size = 0
        #: Datanode ids holding a replica.
        self.locations: List[str] = []
        #: True once finalized; committed blocks are immutable.
        self.committed = False

    @property
    def name(self) -> str:
        return f"blk_{self.block_id}"

    @property
    def end_offset(self) -> int:
        """File offset one past the block's last byte."""
        return self.offset + self.size

    def contains(self, file_offset: int) -> bool:
        return self.offset <= file_offset < self.end_offset

    def __repr__(self) -> str:
        state = "committed" if self.committed else "under-construction"
        return (f"<Block {self.name} of {self.file_path}[{self.index}] "
                f"{self.size}B @ {self.locations} {state}>")
