"""Replication monitoring: heartbeats, dead-node detection, re-replication.

Models the namenode-side machinery HDFS uses to keep replication factors
honest: datanodes heartbeat periodically; when one misses enough beats the
namenode marks it dead, drops it from block locations, and schedules
re-replication of under-replicated blocks — a live datanode holding a
replica streams the block to a new target through the ordinary write
pipeline (so vRead's mount-refresh path sees the new block files too).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.hdfs.block import Block
from repro.hdfs.namenode import Namenode
from repro.hdfs.protocol import Ack, OpWriteBlock, WritePacket
from repro.metrics.accounting import OTHERS
from repro.net.tcp import VmNetwork
from repro.storage.filesystem import FsError, InodeRangeSource


class ReplicationMonitor:
    """Heartbeat tracking + re-replication scheduling for one namenode."""

    def __init__(self, namenode: Namenode, network: VmNetwork,
                 heartbeat_interval: float = 3.0,
                 dead_after_missed: int = 2):
        self.namenode = namenode
        self.network = network
        self.heartbeat_interval = heartbeat_interval
        self.dead_after_missed = dead_after_missed
        self._last_heartbeat: Dict[str, float] = {}
        self._dead: Set[str] = set()
        #: Blocks with a repair in flight (prevents duplicate copies).
        self._repairing: Set[str] = set()
        #: Datanodes being drained (still serve reads; no new placements).
        self._decommissioning: Set[str] = set()
        self.re_replications = 0
        self.re_replication_bytes = 0
        self.rebalance_moves = 0
        self._running = False
        self._sim = None

    # -------------------------------------------------------------- lifecycle
    def start(self, sim) -> None:
        """Begin heartbeating and monitoring (call once after cluster build)."""
        if self._running:
            raise RuntimeError("monitor already started")
        self._running = True
        self._sim = sim
        for dn_id in self.namenode.datanode_ids():
            self._last_heartbeat[dn_id] = sim.now
            sim.process(self._heartbeat_loop(dn_id))
        sim.process(self._monitor_loop())

    def stop(self) -> None:
        """Stop all loops (lets ``sim.run()`` drain)."""
        self._running = False

    def note_datanode_added(self, dn_id: str) -> None:
        """Start heartbeating a datanode registered after :meth:`start`."""
        self.namenode.datanode(dn_id)  # validate
        if dn_id in self._last_heartbeat:
            return
        self._last_heartbeat[dn_id] = self._sim.now if self._sim else 0.0
        if self._running:
            self._sim.process(self._heartbeat_loop(dn_id))

    def forget_datanode(self, dn_id: str) -> None:
        """Drop all state for a datanode removed from the cluster.

        Its heartbeat loop (if any) exits on the next tick because the
        namenode no longer knows the id.
        """
        self._last_heartbeat.pop(dn_id, None)
        self._dead.discard(dn_id)
        self._decommissioning.discard(dn_id)

    def is_dead(self, dn_id: str) -> bool:
        return dn_id in self._dead

    # --------------------------------------------------------- decommission
    def decommission(self, dn_id: str) -> None:
        """Start draining a datanode gracefully.

        The node keeps serving reads, but is excluded from new placements
        and the sweep copies every block it holds elsewhere.  Once
        :meth:`is_drained` turns true the node can be stopped safely.
        """
        self.namenode.datanode(dn_id)  # validate
        self._decommissioning.add(dn_id)
        self.namenode.excluded_datanodes.add(dn_id)

    def is_drained(self, dn_id: str) -> bool:
        """True when no block's *only* replicas remain on ``dn_id``."""
        for block in self.namenode._blocks.values():
            if not block.committed:
                continue
            if dn_id in block.locations:
                others = [loc for loc in block.locations if loc != dn_id]
                if not others:
                    return False
        return True

    def finalize_decommission(self, dn_id: str) -> None:
        """Drop the drained node's replicas from all block locations."""
        if not self.is_drained(dn_id):
            raise RuntimeError(f"{dn_id!r} still holds sole replicas")
        for block in self.namenode._blocks.values():
            if dn_id in block.locations:
                block.locations.remove(dn_id)
        self._decommissioning.discard(dn_id)

    # ------------------------------------------------------------- heartbeats
    def _heartbeat_loop(self, dn_id: str):
        while self._running:
            yield self._sim.timeout(self.heartbeat_interval)
            if not self._running:
                return
            if dn_id not in self._last_heartbeat:
                return  # datanode left the cluster (forget_datanode)
            # Resolved per tick: the node may detach between heartbeats
            # (a same-instant decommission can even beat the first one).
            datanode = self.namenode.datanode(dn_id)
            if not datanode.stopped:
                # A tiny metadata message; CPU cost on the datanode vCPU.
                yield from datanode.vm.vcpu.run(
                    datanode.vm.costs.syscall_cycles, OTHERS)
                self._last_heartbeat[dn_id] = self._sim.now
                if dn_id in self._dead:
                    # Node came back; blocks it reports become readable again
                    # on the next block report (not modeled further).
                    self._dead.discard(dn_id)

    def _monitor_loop(self):
        while self._running:
            yield self._sim.timeout(self.heartbeat_interval)
            if not self._running:
                return
            deadline = (self.heartbeat_interval * self.dead_after_missed)
            for dn_id, last in self._last_heartbeat.items():
                if dn_id in self._dead:
                    continue
                if self._sim.now - last > deadline:
                    self._declare_dead(dn_id)
            # Sweep for blocks that became under-replicated by other means
            # (corrupt replicas dropped, manual decommissions, ...).
            for block in list(self.namenode._blocks.values()):
                if not block.committed or not block.locations:
                    continue
                if block.name in self._repairing:
                    continue
                meta = self.namenode.file(block.file_path)
                effective = [loc for loc in block.locations
                             if loc not in self._decommissioning]
                if len(effective) < meta.replication:
                    self._sim.process(self._re_replicate(block))

    # --------------------------------------------------------- re-replication
    def _declare_dead(self, dn_id: str) -> None:
        self._dead.add(dn_id)
        for block in list(self.namenode._blocks.values()):
            if dn_id in block.locations:
                block.locations.remove(dn_id)
                meta = self.namenode.file(block.file_path)
                if block.locations and len(block.locations) < meta.replication:
                    self._sim.process(self._re_replicate(block))

    def _live_targets(self, block: Block) -> List[str]:
        """Eligible copy targets, in registration order (deterministic)."""
        return [dn_id for dn_id in self.namenode.datanode_ids()
                if dn_id not in self._dead
                and dn_id not in self._decommissioning
                and dn_id not in block.locations]

    def _copy_block(self, block: Block, source_dn, target_dn):
        """Generator: stream one block replica through the write pipeline.

        On success the target joins ``block.locations`` and a commit
        notification fires (so vRead mounts on the target refresh).
        Returns True on success.
        """
        source_path = source_dn.block_path(block.name)
        try:
            payload = yield from source_dn.vm.read_file(source_path)
        except FsError:
            return False
        connection = yield from self.network.connect(
            source_dn.vm, target_dn.vm,
            self.namenode.config.datanode_port)
        yield from connection.send(
            source_dn.vm, OpWriteBlock(block.name, []))
        yield from connection.send(
            source_dn.vm, WritePacket(payload, last=True),
            size=payload.size)
        ack = yield from connection.recv(source_dn.vm)
        connection.close()
        if not (isinstance(ack, Ack) and ack.ok):
            return False
        block.locations.append(target_dn.datanode_id)
        self.re_replication_bytes += payload.size
        self.namenode._notify("commit", block, target_dn.datanode_id)
        return True

    def _re_replicate(self, block: Block):
        """Stream the block from a surviving replica to a fresh datanode."""
        if block.name in self._repairing:
            return
        self._repairing.add(block.name)
        try:
            live = self._live_targets(block)
            if not live or not block.locations:
                return
            source_dn = self.namenode.datanode(block.locations[0])
            target_dn = self.namenode.datanode(live[0])
            ok = yield from self._copy_block(block, source_dn, target_dn)
            if ok:
                self.re_replications += 1
        finally:
            self._repairing.discard(block.name)

    # -------------------------------------------------------------- rebalance
    def _replica_counts(self) -> Dict[str, int]:
        """Committed replicas per eligible datanode (registration order)."""
        counts = {dn_id: 0 for dn_id in self.namenode.datanode_ids()
                  if dn_id not in self._dead
                  and dn_id not in self._decommissioning}
        for block in self.namenode._blocks.values():
            if not block.committed:
                continue
            for dn_id in block.locations:
                if dn_id in counts:
                    counts[dn_id] += 1
        return counts

    def rebalance(self, max_moves: Optional[int] = None):
        """Generator: even out replica counts across live datanodes.

        A deterministic single pass of the HDFS balancer idea: while the
        fullest live datanode holds at least two more replicas than the
        emptiest, move one block between them (copy through the ordinary
        write pipeline, then drop the source replica).  Ties break by
        registration order; block choice is by ascending block name.
        Returns the number of replicas moved.
        """
        moved = 0
        while max_moves is None or moved < max_moves:
            counts = self._replica_counts()
            if len(counts) < 2:
                break
            donor = max(counts, key=lambda dn: (counts[dn],
                                                -self._rank(dn)))
            taker = min(counts, key=lambda dn: (counts[dn],
                                                self._rank(dn)))
            if counts[donor] - counts[taker] < 2:
                break
            candidates = sorted(
                block.name for block in self.namenode._blocks.values()
                if block.committed and donor in block.locations
                and taker not in block.locations
                and block.name not in self._repairing)
            if not candidates:
                break
            block = self.namenode.block_by_name(candidates[0])
            source_dn = self.namenode.datanode(donor)
            target_dn = self.namenode.datanode(taker)
            ok = yield from self._copy_block(block, source_dn, target_dn)
            if not ok:
                break
            block.locations.remove(donor)
            # Unlink the donor's copy directly: a namenode-level "delete"
            # notification would drop the block's stream-layer mapping,
            # but the block itself lives on (on the other replicas).
            try:
                source_dn.vm.unlink(source_dn.block_path(block.name))
            except FsError:
                pass
            self.rebalance_moves += 1
            moved += 1
        return moved

    def _rank(self, dn_id: str) -> int:
        return self.namenode.datanode_ids().index(dn_id)

    def __repr__(self) -> str:
        return (f"<ReplicationMonitor dead={sorted(self._dead)} "
                f"re_replications={self.re_replications}>")
