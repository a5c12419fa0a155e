"""libvread: the user-level vRead API (paper Table 1).

All functions charge the JNI crossing (HDFS is Java; libvread is C) plus
library work on the calling VM's vCPU, then converse with the per-VM daemon
over the shared-ring channel.  ``vread_open`` returns ``None`` when no
descriptor can be obtained (unknown datanode, block not yet visible through
the mount, ...) — the HDFS integration then falls back to the original
``read_buffer`` path, exactly as in Algorithms 1 and 2.

Resilience (:mod:`repro.faults`): every conversation runs under a deadline
from a :class:`~repro.faults.retry.VReadClientPolicy`.  A timeout — daemon
crashed, ring stalled, remote path wedged — aborts the conversation
(stale-epoch responses are discarded by the channel) and flips the library
into *degraded* mode, where calls immediately signal fallback so the HDFS
integration uses the vanilla path at full speed.  Every
``reprobe_interval`` sim-seconds one call is allowed through as a probe; if
the daemon answers, the library recovers and vRead reads resume.
"""

from __future__ import annotations

import itertools
from typing import Optional

from repro.core.channel import ChannelRequest, OpenResult, VReadChannel
from repro.core.daemon import ReadHeader
from repro.core.descriptors import VfdHashTable, VReadDescriptor
from repro.faults.retry import (DeadlineExceeded, VReadClientPolicy,
                                call_with_deadline)
from repro.metrics.accounting import CLIENT_APPLICATION, COPY_VREAD_BUFFER
from repro.storage.content import ConcatSource


class VReadError(Exception):
    """A vRead conversation failed after open (I/O error, protocol error)."""


class VReadLibrary:
    """libvread bound to one client VM and its channel."""

    def __init__(self, vm, channel: VReadChannel,
                 policy: Optional[VReadClientPolicy] = None,
                 counters=None):
        self.vm = vm
        self.channel = channel
        self.policy = policy or VReadClientPolicy()
        #: Optional FaultCounters sink, wired by the cluster builder.
        self.counters = counters
        #: block name -> descriptor (paper: "each obtained descriptor is
        #: stored in a hash table in the user-level library").
        self.vfd_hash = VfdHashTable()
        self._vfd_counter = itertools.count(3)  # 0/1/2 taken, by tradition
        self.opens = 0
        self.reads = 0
        self.fallback_denials = 0
        #: Sim time degradation began; ``None`` while healthy.
        self.degraded_since: Optional[float] = None
        self._last_probe = 0.0
        self.timeouts = 0
        self.reprobes = 0
        self.recoveries = 0

    # ---------------------------------------------------------------- helpers
    def _jni(self):
        yield from self.vm.vcpu.run(self.vm.costs.vread_jni_call_cycles,
                                    CLIENT_APPLICATION)

    def _count(self, name: str, **fields) -> None:
        if self.counters is not None:
            self.counters.count(name, vm=self.vm.name, **fields)

    @property
    def degraded(self) -> bool:
        return self.degraded_since is not None

    def _fast_fail(self) -> bool:
        """True when degraded and it is not yet time to re-probe.

        When the re-probe interval has elapsed, the *current* call becomes
        the probe: it is let through to the (possibly restarted) daemon.
        """
        if self.degraded_since is None:
            return False
        now = self.vm.sim.now
        if now - self._last_probe >= self.policy.reprobe_interval:
            self._last_probe = now
            self.reprobes += 1
            self._count("recovery.daemon-reprobe")
            return False
        return True

    def _enter_degraded(self, cause: str) -> None:
        self.timeouts += 1
        now = self.vm.sim.now
        if self.degraded_since is None:
            self.degraded_since = now
            self._count("recovery.vread-degraded", cause=cause)
        self._last_probe = now
        # Late responses of the abandoned conversation must not leak into
        # the next one.
        self.channel.abort_conversation()

    def _recovered(self) -> None:
        if self.degraded_since is not None:
            self.degraded_since = None
            self.recoveries += 1
            self._count("recovery.daemon-recovered")

    # ----------------------------------------------------- conversation bodies
    def _open_conversation(self, block_name: str, datanode_id: str):
        with self.channel.conversation() as token:
            yield token
            yield from self.channel.guest_send_request(
                ChannelRequest("open", block_name, datanode_id))
            result, _ = yield from self.channel.guest_wait_response()
        return result

    def _read_conversation(self, descriptor: VReadDescriptor, offset: int,
                           length: int, copy_category: str):
        with self.channel.conversation() as token:
            yield token
            yield from self.channel.guest_send_request(
                ChannelRequest("read", descriptor.block_name,
                               descriptor.datanode_id, offset, length))
            header, _ = yield from self.channel.guest_wait_response()
            if not (isinstance(header, ReadHeader) and header.ok):
                message = getattr(header, "message", "bad header")
                raise VReadError(f"vread_read failed: {message}")
            pieces = []
            received = 0
            while received < header.length:
                piece, nbytes = yield from self.channel.guest_wait_response(
                    copy_category=copy_category)
                pieces.append(piece)
                received += nbytes
        return pieces, received

    def _update_conversation(self, block_name: str, datanode_id: str):
        with self.channel.conversation() as token:
            yield token
            yield from self.channel.guest_send_request(
                ChannelRequest("update", block_name, datanode_id))
            yield from self.channel.guest_wait_response()

    # -------------------------------------------------------------- Table 1
    def vread_open(self, block_name: str, datanode_id: str):
        """Generator: open the block file on ``datanode_id``.

        Returns a :class:`VReadDescriptor` or ``None`` when vRead cannot
        serve this block — daemon denial, timeout, or degraded mode — and
        the caller falls back to vanilla HDFS.
        """
        yield from self._jni()
        if self._fast_fail():
            self.fallback_denials += 1
            return None
        try:
            result = yield from call_with_deadline(
                self.vm.sim,
                self._open_conversation(block_name, datanode_id),
                self.policy.open_timeout)
        except DeadlineExceeded:
            self._enter_degraded("open-timeout")
            self.fallback_denials += 1
            return None
        self._recovered()
        if not (isinstance(result, OpenResult) and result.ok):
            self.fallback_denials += 1
            return None
        descriptor = VReadDescriptor(next(self._vfd_counter), block_name,
                                     datanode_id, result.size)
        self.vfd_hash.put(descriptor)
        self.opens += 1
        return descriptor

    def vread_read(self, descriptor: VReadDescriptor, offset: int,
                   length: int, copy_category: str = COPY_VREAD_BUFFER):
        """Generator: read up to ``length`` bytes at ``offset``.

        Returns a ByteSource (clamped at the block file's size).  Raises
        :class:`VReadError` on daemon-side failure or timeout — the HDFS
        integration then falls back to the vanilla path for this read.
        """
        if not descriptor.open:
            raise VReadError(f"descriptor {descriptor.vfd} is closed")
        yield from self._jni()
        if self._fast_fail():
            raise VReadError("vRead degraded: daemon not answering")
        length = max(0, min(length, descriptor.size - offset))
        try:
            pieces, received = yield from call_with_deadline(
                self.vm.sim,
                self._read_conversation(descriptor, offset, length,
                                        copy_category),
                self.policy.read_timeout)
        except DeadlineExceeded:
            self._enter_degraded("read-timeout")
            raise VReadError(
                f"vread_read timed out after {self.policy.read_timeout}s")
        self._recovered()
        self.reads += 1
        descriptor.offset = offset + received
        if len(pieces) == 1:
            # Single-chunk responses (the common case for reads up to
            # chunk_bytes) skip the concat wrapper entirely.
            return pieces[0]
        return ConcatSource(pieces)

    def vread_seek(self, descriptor: VReadDescriptor, offset: int):
        """Generator: set the descriptor's file offset (library-local)."""
        if not descriptor.open:
            raise VReadError(f"descriptor {descriptor.vfd} is closed")
        if offset < 0:
            raise VReadError(f"negative seek offset {offset}")
        yield from self._jni()
        descriptor.offset = offset
        return offset

    def vread_close(self, descriptor: VReadDescriptor):
        """Generator: close the descriptor and drop it from the hash."""
        yield from self._jni()
        if not descriptor.open:
            return -1
        descriptor.open = False
        self.vfd_hash.remove(descriptor.block_name)
        return 0

    def vread_update(self, block_name: str, datanode_id: str):
        """Generator: tell the daemon to refresh the datanode's mount.

        Called by the HDFS write path after a block commit/delete/rename
        (paper Section 4); the namenode-notification path triggers the same
        refresh for other hosts.  Returns -1 (without blocking the writer)
        when the daemon is unresponsive.
        """
        yield from self._jni()
        if self._fast_fail():
            return -1
        try:
            yield from call_with_deadline(
                self.vm.sim,
                self._update_conversation(block_name, datanode_id),
                self.policy.open_timeout)
        except DeadlineExceeded:
            self._enter_degraded("update-timeout")
            return -1
        self._recovered()
        return 0

    def __repr__(self) -> str:
        state = "degraded" if self.degraded else "healthy"
        return (f"<VReadLibrary {self.vm.name} {state} "
                f"vfds={len(self.vfd_hash)} opens={self.opens} "
                f"reads={self.reads}>")
