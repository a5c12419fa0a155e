"""The vRead daemons: per-host service + per-VM daemon.

:class:`VReadHostService` (one per physical host) owns what the paper calls
the *vRead hash* — the table mapping HDFS datanode ids to the corresponding
virtual-disk information: a loop-mounted local image, or the peer host
holding it.  It performs the actual block-file reads through the mount
(paying loop-device + host-FS costs, hitting the host page cache, faulting
from the SSD) and serves remote requests arriving over RDMA/TCP.

:class:`VReadDaemon` (one per client VM, as in the paper) drains that VM's
shared-ring channel: open/read/update requests from libvread, answered with
data copied into the ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Union

from repro.core.channel import ChannelRequest, OpenResult, VReadChannel
from repro.core.remote import RemoteRequest, RemoteResponse
from repro.faults.retry import DeadlineExceeded
from repro.metrics.accounting import LOOP_DEVICE, OTHERS
from repro.net.rdma import RdmaError
from repro.sim import Interrupt
from repro.storage.content import SliceSource
from repro.storage.device import DiskError
from repro.storage.filesystem import FsError, InodeRangeSource
from repro.storage.image import DiskImage


@dataclass
class ReadHeader:
    """First response item of a 'read' conversation."""
    ok: bool
    length: int = 0
    message: str = ""


class _LocalEntry:
    __slots__ = ("image",)

    def __init__(self, image: DiskImage):
        self.image = image


class _RemoteEntry:
    __slots__ = ("peer",)

    def __init__(self, peer: "VReadHostService"):
        self.peer = peer


class VReadHostService:
    """Per-host vRead machinery: mounts, datanode table, remote serving."""

    def __init__(self, host, lan, data_dir: str = "/hadoop/dfs/data",
                 bypass_host_fs: bool = False):
        self.host = host
        self.lan = lan
        self.sim = host.sim
        self.costs = host.costs
        self.data_dir = data_dir
        #: Section 6 ablation: read the image directly, skipping the host FS
        #: (no mounts/refreshes, but no host page cache and extra address
        #: translation per read).
        self.bypass_host_fs = bypass_host_fs
        self.thread = host.thread("vread-hostd")
        self._table: Dict[str, Union[_LocalEntry, _RemoteEntry]] = {}
        #: Set by the manager once a transport mode is chosen.
        self.transport = None
        self.refreshes = 0

    # ----------------------------------------------------------- registration
    def register_local_datanode(self, datanode_id: str,
                                image: DiskImage) -> None:
        """A datanode VM runs on this host: mount its image read-only."""
        self._table[datanode_id] = _LocalEntry(image)
        if not self.bypass_host_fs:
            self.host.mount_image(image)

    def register_remote_datanode(self, datanode_id: str,
                                 peer: "VReadHostService") -> None:
        """A datanode VM runs on ``peer``'s host: store the peer address."""
        self._table[datanode_id] = _RemoteEntry(peer)

    def unregister_datanode(self, datanode_id: str) -> None:
        """Datanode VM deleted or migrated away (paper Section 6)."""
        entry = self._table.pop(datanode_id, None)
        if isinstance(entry, _LocalEntry) and not self.bypass_host_fs:
            if entry.image.name in self.host.mounts:
                self.host.unmount_image(entry.image.name)

    def lookup(self, datanode_id: str):
        return self._table.get(datanode_id)

    def is_local(self, datanode_id: str) -> bool:
        return isinstance(self._table.get(datanode_id), _LocalEntry)

    # ----------------------------------------------------------------- refresh
    def schedule_refresh(self, datanode_id: str) -> None:
        """Refresh the mount's dentry cache (vRead_update trigger path)."""
        entry = self._table.get(datanode_id)
        if not isinstance(entry, _LocalEntry) or self.bypass_host_fs:
            return
        self.sim.process(self._refresh(entry.image))

    def _refresh(self, image: DiskImage):
        yield from self.thread.run(self.costs.mount_refresh_cycles, OTHERS)
        mount = self.host.mounts.get(image.name)
        if mount is not None:
            mount.refresh()
            self.refreshes += 1

    # -------------------------------------------------------------- local I/O
    def open_local(self, datanode_id: str, block_name: str, thread=None):
        """Generator: stat a block file through the mount.

        Returns ``(ok, size)``.  A block committed after the last refresh is
        invisible (``ok=False``) — the caller falls back to vanilla HDFS.
        """
        thread = thread or self.thread
        entry = self._table.get(datanode_id)
        if not isinstance(entry, _LocalEntry):
            return False, 0
        yield from thread.run(self.costs.loop_device_request_cycles,
                              LOOP_DEVICE)
        path = f"{self.data_dir}/{block_name}"
        if self.bypass_host_fs:
            yield from thread.run(self.costs.address_translation_cycles,
                                  LOOP_DEVICE)
            try:
                inode = entry.image.guest_fs.lookup(path)
            except FsError:
                return False, 0
            return True, inode.size
        mount = self.host.mounts[entry.image.name]
        if not mount.exists(path):
            return False, 0
        return True, mount.size(path)

    def read_local(self, datanode_id: str, block_name: str, offset: int,
                   length: int, thread=None):
        """Generator: read block bytes through the mount (or bypass mode).

        Returns ``(ok, payload, message)`` where payload is a lazy
        ByteSource.  Pays loop-device request cycles, host-page-cache
        consultation, and SSD time for missing pages.  The copy *out* of the
        page cache is paid by the caller when it copies into the ring.
        """
        thread = thread or self.thread
        entry = self._table.get(datanode_id)
        if not isinstance(entry, _LocalEntry):
            return False, None, f"datanode {datanode_id!r} is not local"
        path = f"{self.data_dir}/{block_name}"
        yield from thread.run(self.costs.loop_device_request_cycles,
                              LOOP_DEVICE)
        if self.bypass_host_fs:
            # Manual guest-logical -> host-physical translation, no cache.
            yield from thread.run(self.costs.address_translation_cycles,
                                  LOOP_DEVICE)
            try:
                inode = entry.image.guest_fs.lookup(path)
            except FsError as exc:
                return False, None, str(exc)
            try:
                yield from self.host.storage.read(length, offset=offset)
            except DiskError as exc:
                return False, None, str(exc)
            return True, InodeRangeSource(inode, offset, length), ""
        mount = self.host.mounts[entry.image.name]
        try:
            inode = mount.lookup(path)
        except FsError as exc:
            return False, None, str(exc)
        key = entry.image.cache_key(inode)
        missing = self.host.page_cache.missing_bytes(key, offset, length)
        if missing > 0:
            yield from thread.run(
                self.costs.host_fs_read_cycles_per_byte * length,
                LOOP_DEVICE)
            try:
                yield from self.host.storage.read(missing, offset=offset)
            except DiskError as exc:
                return False, None, str(exc)
            self.host.page_cache.insert(key, offset, length)
        try:
            payload = InodeRangeSource(inode, offset, length)
        except FsError as exc:
            return False, None, str(exc)
        return True, payload, ""

    # ------------------------------------------------------------- remote side
    def handle_remote(self, request: RemoteRequest):
        """Generator: serve a request from a peer host's daemon."""
        if request.kind == "open":
            ok, size = yield from self.open_local(
                request.datanode_id, request.block_name)
            return RemoteResponse(ok=ok, size=size)
        if request.kind == "read":
            ok, payload, message = yield from self.read_local(
                request.datanode_id, request.block_name,
                request.offset, request.length)
            if not ok:
                return RemoteResponse(ok=False, message=message)
            return RemoteResponse(ok=True, payload=payload,
                                  nbytes=payload.size)
        return RemoteResponse(ok=False,
                              message=f"bad remote request {request.kind!r}")

    def __repr__(self) -> str:
        return (f"<VReadHostService {self.host.name} "
                f"datanodes={sorted(self._table)}>")


class VReadDaemon:
    """The per-VM daemon draining one client VM's shared-ring channel.

    Supports deterministic crash/restart (fault injection): :meth:`crash`
    interrupts the serve loop mid-whatever-it-was-doing; :meth:`restart`
    resets the channel's shared state (fresh SHM mapping) and spawns a new
    serve loop.  While crashed, guest conversations simply hang until the
    library's timeouts fire and it degrades to the vanilla path.
    """

    def __init__(self, vm, channel: VReadChannel,
                 service: VReadHostService):
        self.vm = vm
        self.channel = channel
        self.service = service
        self.thread = service.host.thread(f"vread-daemon.{vm.name}")
        self.requests_served = 0
        self.crashed = False
        self.crashes = 0
        self.restarts = 0
        self._serve_proc = vm.sim.process(self._serve())

    # ------------------------------------------------------------ crash/restart
    def crash(self) -> None:
        """Kill the serve loop (vRead daemon process dies)."""
        if self.crashed:
            return
        self.crashed = True
        self.crashes += 1
        if self._serve_proc is not None and self._serve_proc.is_alive:
            self._serve_proc.interrupt("daemon crash")

    def restart(self) -> None:
        """Start a fresh daemon process over a re-created channel."""
        if not self.crashed:
            return
        self.crashed = False
        self.restarts += 1
        self.channel.reset()
        self._serve_proc = self.vm.sim.process(self._serve())

    def _serve(self):
        while True:
            try:
                request = yield from self.channel.daemon_wait_request(
                    self.thread)
                self.requests_served += 1
                if request.kind == "open":
                    yield from self._handle_open(request)
                elif request.kind == "read":
                    yield from self._handle_read(request)
                elif request.kind == "update":
                    self.service.schedule_refresh(request.datanode_id)
                    yield from self.channel.daemon_send_response(
                        self.thread, OpenResult(ok=True), 0)
                else:
                    yield from self.channel.daemon_send_response(
                        self.thread,
                        OpenResult(ok=False, message="bad request"), 0)
            except Interrupt:
                # Injected crash: die where we stood.
                return

    # ------------------------------------------------------------------ open
    def _handle_open(self, request: ChannelRequest):
        entry = self.service.lookup(request.datanode_id)
        if entry is None:
            result = OpenResult(ok=False, message="unknown datanode")
        elif self.service.is_local(request.datanode_id):
            ok, size = yield from self.service.open_local(
                request.datanode_id, request.block_name, self.thread)
            result = OpenResult(ok=ok, size=size)
        else:
            try:
                response = yield from self.service.transport.request(
                    entry.peer, RemoteRequest("open", request.datanode_id,
                                              request.block_name))
            except (RdmaError, DeadlineExceeded) as exc:
                response = RemoteResponse(ok=False, message=str(exc))
            result = OpenResult(ok=response.ok, size=response.size,
                                message=response.message)
        yield from self.channel.daemon_send_response(self.thread, result, 0)

    # ------------------------------------------------------------------ read
    def _handle_read(self, request: ChannelRequest):
        entry = self.service.lookup(request.datanode_id)
        if entry is None:
            header = ReadHeader(ok=False, message="unknown datanode")
            yield from self.channel.daemon_send_response(self.thread, header, 0)
            return
        if self.service.is_local(request.datanode_id):
            ok, payload, message = yield from self.service.read_local(
                request.datanode_id, request.block_name,
                request.offset, request.length, self.thread)
        else:
            try:
                response = yield from self.service.transport.request(
                    entry.peer, RemoteRequest("read", request.datanode_id,
                                              request.block_name,
                                              request.offset, request.length))
            except (RdmaError, DeadlineExceeded) as exc:
                response = RemoteResponse(ok=False, message=str(exc))
            ok, payload, message = response.ok, response.payload, response.message
        if not ok:
            yield from self.channel.daemon_send_response(
                self.thread, ReadHeader(ok=False, message=message), 0)
            return
        yield from self.channel.daemon_send_response(
            self.thread, ReadHeader(ok=True, length=payload.size), 0)
        # Stream the data into the ring chunk by chunk.
        sent = 0
        while sent < payload.size:
            chunk = min(self.channel.chunk_bytes, payload.size - sent)
            piece = SliceSource(payload, sent, chunk)
            yield from self.channel.daemon_send_response(
                self.thread, piece, chunk)
            sent += chunk

    def __repr__(self) -> str:
        return f"<VReadDaemon for {self.vm.name} served={self.requests_served}>"
