"""HDFS: namenode, datanodes, and the DFSClient (Hadoop 1.2.1 semantics).

This is a working distributed filesystem over the simulated substrate:
files are split into blocks (64 MB default), blocks live as regular files
under the same data directory in each datanode VM's filesystem, a namenode
tracks file->block and block->location metadata, and clients stream block
data from datanodes over (virtual) TCP — the full vanilla data path the
paper measures against.

Key fidelity points:

* **write-once blocks**: appends go to the block under construction; a
  committed block is immutable and its commit notifies the namenode, which
  fans out to observers (vRead daemons hook this to refresh loop mounts).
* **replica choice** prefers a co-located datanode VM (the HVE-style
  virtualization-aware topology the paper assumes), then falls back to a
  remote replica.
* the client read interfaces mirror ``DFSInputStream``: sequential
  :meth:`~repro.hdfs.client.DfsInputStream.read` (the paper's ``read1``) and
  positional :meth:`~repro.hdfs.client.DfsInputStream.pread` (``read2``),
  both of which vRead overrides in :mod:`repro.core.integration`.
"""

from repro.hdfs.block import Block, BlockId
from repro.hdfs.client import DfsClient, DfsInputStream, DfsOutputStream
from repro.hdfs.config import HdfsConfig
from repro.hdfs.datanode import Datanode
from repro.hdfs.fsck import FsckReport, fsck
from repro.hdfs.namenode import Namenode
from repro.hdfs.replication import ReplicationMonitor
from repro.hdfs.topology import PlacementPolicy

__all__ = [
    "Block",
    "BlockId",
    "Datanode",
    "DfsClient",
    "DfsInputStream",
    "DfsOutputStream",
    "FsckReport",
    "HdfsConfig",
    "fsck",
    "Namenode",
    "PlacementPolicy",
    "ReplicationMonitor",
]
