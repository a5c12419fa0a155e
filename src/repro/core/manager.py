"""vRead deployment: wire services, daemons, channels onto a cluster.

The manager mirrors what installing vRead on a KVM cluster involves:

* one :class:`~repro.core.daemon.VReadHostService` per physical host, with
  every datanode VM's disk image either loop-mounted (local) or recorded as
  a peer-host entry (remote) in the hash table;
* a remote transport ('rdma' preferred, 'tcp' fallback) between services;
* per client VM: an ivshmem channel, a guest driver + libvread, and the
  per-VM daemon;
* a namenode-observer subscription that refreshes the owning host's mount
  whenever a block is committed or deleted (the vRead_update trigger path).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.api import VReadLibrary
from repro.core.channel import VReadChannel
from repro.core.daemon import VReadDaemon, VReadHostService
from repro.core.integration import VReadDfsClient
from repro.core.remote import RdmaTransport, TcpTransport
from repro.hdfs.namenode import Namenode
from repro.net.lan import Lan
from repro.net.rdma import RdmaLink
from repro.net.tcp import VmNetwork
from repro.virt.vm import VirtualMachine


class VReadManager:
    """Installs and operates vRead across the cluster."""

    def __init__(self, namenode: Namenode, network: VmNetwork, lan: Lan,
                 rdma_link: Optional[RdmaLink] = None,
                 transport: str = "rdma",
                 bypass_host_fs: bool = False,
                 ring_slots: int = 1024, ring_slot_bytes: int = 4096,
                 channel_chunk_bytes: int = 1 << 20,
                 counters=None, client_policy=None, retry_policy=None,
                 retry_rng=None):
        if transport not in ("rdma", "tcp"):
            raise ValueError(f"transport must be 'rdma' or 'tcp': {transport}")
        if transport == "rdma" and rdma_link is None:
            raise ValueError("rdma transport needs an RdmaLink")
        self.namenode = namenode
        self.network = network
        self.lan = lan
        self.rdma_link = rdma_link
        self.transport_mode = transport
        self.bypass_host_fs = bypass_host_fs
        #: Ring geometry (paper default: 1024 x 4 KiB slots) and response
        #: streaming chunk — exposed for the ablation experiments.
        self.ring_slots = ring_slots
        self.ring_slot_bytes = ring_slot_bytes
        self.channel_chunk_bytes = channel_chunk_bytes
        #: Fault/recovery accounting + resilience knobs, threaded into
        #: every library, client and transport this manager creates.
        self.counters = counters
        self.client_policy = client_policy
        self.retry_policy = retry_policy
        self.retry_rng = retry_rng
        self._services: Dict[str, VReadHostService] = {}
        self._daemons: Dict[str, VReadDaemon] = {}
        self._libraries: Dict[str, VReadLibrary] = {}
        namenode.add_observer(self._on_namenode_event)
        self._register_datanodes()

    # ----------------------------------------------------------------- wiring
    def service_for(self, host) -> VReadHostService:
        service = self._services.get(host.name)
        if service is None:
            service = VReadHostService(
                host, self.lan, data_dir=self.namenode.config.data_dir,
                bypass_host_fs=self.bypass_host_fs)
            if self.transport_mode == "rdma":
                service.transport = RdmaTransport(service, self.rdma_link)
            else:
                service.transport = TcpTransport(service)
            service.transport.counters = self.counters
            self._services[host.name] = service
        return service

    def _register_datanodes(self) -> None:
        datanodes = [self.namenode.datanode(dn_id)
                     for dn_id in self.namenode.datanode_ids()]
        hosts = {dn.vm.host.name: dn.vm.host for dn in datanodes}
        for host in hosts.values():
            self.service_for(host)
        for datanode in datanodes:
            self.rebind_datanode(datanode)

    def rebind_datanode(self, datanode) -> None:
        """(Re)install table entries for one datanode on every service.

        Also the VM-migration hook (paper Section 6): call again after the
        datanode VM moves and each host's hash table is updated.
        """
        owner = self.service_for(datanode.vm.host)
        for service in self._services.values():
            service.unregister_datanode(datanode.datanode_id)
            if service is owner:
                service.register_local_datanode(datanode.datanode_id,
                                                datanode.vm.image)
            else:
                service.register_remote_datanode(datanode.datanode_id, owner)

    def ensure_coverage(self) -> None:
        """Fill hash-table gaps after membership changes.

        The membership controller calls this after a datanode joins or
        migrates: a service created lazily for a host that just gained its
        first datanode knows nothing about the *other* datanodes, so walk
        every (service, datanode) pair — in namenode registration order,
        deterministically — and add any missing entry.  Existing entries
        (and their mounts) are left untouched.
        """
        for dn_id in self.namenode.datanode_ids():
            datanode = self.namenode.datanode(dn_id)
            owner = self.service_for(datanode.vm.host)
            for service in self._services.values():
                if service.lookup(dn_id) is None:
                    if service is owner:
                        service.register_local_datanode(dn_id,
                                                        datanode.vm.image)
                    else:
                        service.register_remote_datanode(dn_id, owner)

    def detach_datanode(self, datanode_id: str) -> None:
        """Remove a datanode's entries (and local mount) on every host."""
        for service in self._services.values():
            service.unregister_datanode(datanode_id)

    def attach_client(self, vm: VirtualMachine) -> VReadDfsClient:
        """Give ``vm`` a vRead-enabled HDFS client (channel+daemon+library)."""
        if vm.name not in self._libraries:
            service = self.service_for(vm.host)
            channel = VReadChannel(vm.sim, vm, slots=self.ring_slots,
                                   slot_bytes=self.ring_slot_bytes,
                                   chunk_bytes=self.channel_chunk_bytes)
            self._daemons[vm.name] = VReadDaemon(vm, channel, service)
            self._libraries[vm.name] = VReadLibrary(
                vm, channel, policy=self.client_policy,
                counters=self.counters)
        return VReadDfsClient(vm, self.namenode, self.network,
                              self._libraries[vm.name],
                              retry_policy=self.retry_policy,
                              counters=self.counters,
                              retry_rng=self.retry_rng)

    def library_of(self, vm: VirtualMachine) -> VReadLibrary:
        return self._libraries[vm.name]

    def daemon_of(self, vm: VirtualMachine) -> VReadDaemon:
        return self._daemons[vm.name]

    # ----------------------------------------------------------- notifications
    def _on_namenode_event(self, event: str, block, datanode_id: str) -> None:
        """Block commit/delete: refresh the mount on the owning host."""
        if event not in ("commit", "delete"):
            return
        try:
            datanode = self.namenode.datanode(datanode_id)
        except Exception:
            return
        service = self._services.get(datanode.vm.host.name)
        if service is not None:
            service.schedule_refresh(datanode_id)

    def __repr__(self) -> str:
        return (f"<VReadManager transport={self.transport_mode} "
                f"services={sorted(self._services)} "
                f"clients={sorted(self._libraries)}>")
