"""Wire messages of the datanode streaming protocol (DataTransferProtocol)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.storage.content import ByteSource


@dataclass
class OpReadBlock:
    """Client -> datanode: stream ``length`` bytes of a block."""
    block_name: str
    offset: int
    length: int


@dataclass
class OpWriteBlock:
    """Client/upstream -> datanode: open a write pipeline for a block.

    ``downstream`` lists the datanode ids the receiver must forward to.
    """
    block_name: str
    downstream: List[str] = field(default_factory=list)


@dataclass
class WritePacket:
    """One packet of block data flowing down a write pipeline."""
    payload: ByteSource
    last: bool = False


@dataclass
class Ack:
    """Datanode -> upstream: pipeline acknowledgement."""
    block_name: str
    ok: bool = True
    message: str = ""


@dataclass
class ErrorResponse:
    """Datanode -> client: the request failed."""
    message: str


class HdfsProtocolError(Exception):
    """Raised on protocol violations or remote errors."""
