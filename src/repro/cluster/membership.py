"""The cluster membership control plane: churn as a first-class operation.

A :class:`VirtualHadoopCluster` is *built* from a declarative
:class:`~repro.cluster.topology.TopologySpec`, but after construction the
spec is frozen — this controller owns the cluster's **runtime** view and
the operations that change it:

* :meth:`ClusterController.add_datanode` — a new datanode VM joins an
  existing host and registers with the namenode, the replication
  monitor, and (when deployed) every vRead host service;
* :meth:`ClusterController.decommission_datanode` — graceful drain
  through the :class:`~repro.hdfs.replication.ReplicationMonitor`
  (``decommission`` -> wait drained -> ``finalize_decommission``), then a
  full detach: the datanode shuts down, the namenode forgets it, vRead
  hash tables drop its entries, and the VM's threads are retired;
* :meth:`ClusterController.migrate` — live migration wrapping
  :func:`~repro.virt.migration.migrate_vm` with the bookkeeping the paper
  prescribes in Section 6: vRead tables rebound on every host, hash-table
  coverage extended to hosts that just gained their first datanode, and
  the rack-local RDMA domain recomputed implicitly (transport decisions
  read live host positions).

Every operation bumps :attr:`ClusterController.version`, appends to
:attr:`ClusterController.log` and counts a ``membership.<event>`` fault
counter, so experiments can report churn without polling.

Determinism contract: **constructing** the controller creates no
simulator events and draws no randomness — a cluster that never churns
takes exactly the pre-controller code path, byte for byte.  Operations
themselves are deterministic functions of the call sequence and the
simulation clock.
"""

from __future__ import annotations

import difflib
from typing import List, Optional, Union

from repro.hdfs.datanode import Datanode
from repro.hdfs.replication import ReplicationMonitor
from repro.virt.migration import migrate_vm
from repro.virt.vm import VirtualMachine


class MembershipError(ValueError):
    """An illegal membership operation (unknown or conflicting target)."""


def _suggest(name: str, valid) -> str:
    close = difflib.get_close_matches(name, list(valid), n=1)
    return f" (did you mean {close[0]!r}?)" if close else ""


class ClusterController:
    """The live membership model of one cluster (``cluster.membership``)."""

    def __init__(self, cluster):
        self._cluster = cluster
        #: Monotonic membership version; 0 means "as built, never churned".
        self.version = 0
        #: Datanode ids retired by decommission (for target-resolution
        #: error messages: "dn3 was decommissioned").
        self.decommissioned: List[str] = []
        #: ``(version, event, detail)`` log of every membership change.
        self.log: List[tuple] = []
        #: The controller-owned replication monitor, created (and started)
        #: lazily by the first decommission — or explicitly via
        #: :meth:`ensure_monitor`.
        self.monitor: Optional[ReplicationMonitor] = None
        self._next_datanode = len(cluster.datanodes) + 1

    def _bump(self, event: str, **detail) -> None:
        """Record one membership change.

        Events: ``datanode-added``, ``datanode-decommissioned``,
        ``vm-migrated``.
        """
        self.version += 1
        self.log.append((self.version, event, detail))
        self._cluster.fault_counters.count(f"membership.{event}", **detail)

    # ------------------------------------------------------------ runtime view
    def live_datanode_ids(self) -> List[str]:
        """Datanode ids currently serving, in registration order."""
        return [d.datanode_id for d in self._cluster.datanodes]

    def client_vm_names(self) -> List[str]:
        return [vm.name for vm in self._cluster.client_vms]

    def describe(self) -> str:
        """The *current* layout (rack by rack), not the build-time spec."""
        from repro.cluster.topology import runtime_topology
        return runtime_topology(self._cluster).describe()

    def runtime_spec(self):
        """A fresh :class:`TopologySpec` of the cluster as it is now."""
        from repro.cluster.topology import runtime_topology
        return runtime_topology(self._cluster)

    # -------------------------------------------------------------- resolvers
    def _resolve_host(self, host):
        cluster = self._cluster
        if not isinstance(host, str):
            if host in cluster.hosts:
                return host
            raise MembershipError(
                f"host {host!r} does not belong to this cluster")
        for candidate in cluster.hosts:
            if candidate.name == host:
                return candidate
        names = [h.name for h in cluster.hosts]
        raise MembershipError(
            f"no host named {host!r}{_suggest(host, names)}; "
            f"cluster has {names}")

    def _resolve_vm(self, vm) -> VirtualMachine:
        cluster = self._cluster
        if isinstance(vm, VirtualMachine):
            if any(vm in host.vms for host in cluster.hosts):
                return vm
            raise MembershipError(
                f"VM {vm.name!r} does not belong to this cluster")
        for host in cluster.hosts:
            for candidate in host.vms:
                if candidate.name == vm:
                    return candidate
        for datanode in cluster.datanodes:
            if datanode.datanode_id == vm:
                return datanode.vm
        names = [v.name for host in cluster.hosts for v in host.vms]
        raise MembershipError(
            f"no VM named {vm!r}{_suggest(vm, names)}; cluster has {names} "
            f"(datanode ids also resolve: {self.live_datanode_ids()})")

    def _all_vm_names(self) -> List[str]:
        return [vm.name for host in self._cluster.hosts for vm in host.vms]

    # ---------------------------------------------------------------- monitor
    def ensure_monitor(self, heartbeat_interval: float = 3.0
                       ) -> ReplicationMonitor:
        """The controller's replication monitor, started on first use."""
        if self.monitor is None:
            self.monitor = ReplicationMonitor(
                self._cluster.namenode, self._cluster.network,
                heartbeat_interval=heartbeat_interval)
        if not self.monitor._running:
            self.monitor.start(self._cluster.sim)
        return self.monitor

    def stop_monitor(self) -> None:
        """Stop the controller's monitor loops so the sim can drain."""
        if self.monitor is not None:
            self.monitor.stop()

    # -------------------------------------------------------------- datanodes
    def add_datanode(self, host, name: Optional[str] = None,
                     datanode_id: Optional[str] = None) -> Datanode:
        """Bring a new datanode VM up on ``host`` (name or object).

        Defaults continue the topology's numbering (``datanodeN`` /
        ``dnN``).  The datanode registers with the namenode immediately,
        joins the controller's replication monitor (if running), and every
        vRead host service learns its location.
        """
        cluster = self._cluster
        host = self._resolve_host(host)
        if datanode_id is None:
            existing = set(self.live_datanode_ids()) | set(self.decommissioned)
            while f"dn{self._next_datanode}" in existing:
                self._next_datanode += 1
            datanode_id = f"dn{self._next_datanode}"
        elif datanode_id in self.live_datanode_ids():
            raise MembershipError(
                f"datanode id {datanode_id!r} is already in use; live ids: "
                f"{self.live_datanode_ids()}")
        if name is None:
            taken = set(self._all_vm_names())
            while f"datanode{self._next_datanode}" in taken:
                self._next_datanode += 1
            name = f"datanode{self._next_datanode}"
            self._next_datanode += 1
        elif name in self._all_vm_names():
            raise MembershipError(
                f"VM name {name!r} is already in use; cluster has "
                f"{self._all_vm_names()}")

        vm = VirtualMachine(host, name)
        datanode = Datanode(datanode_id, vm, cluster.namenode,
                            cluster.network)
        cluster.datanode_vms.append(vm)
        cluster.datanodes.append(datanode)
        if cluster.vread_manager is not None:
            cluster.vread_manager.rebind_datanode(datanode)
            cluster.vread_manager.ensure_coverage()
        if self.monitor is not None and self.monitor._running:
            self.monitor.note_datanode_added(datanode_id)
        self._bump("datanode-added", datanode=datanode_id, host=host.name)
        return datanode

    def decommission_datanode(self, datanode_id: str,
                              poll_interval: Optional[float] = None):
        """Generator: drain ``datanode_id`` gracefully, then detach it.

        Drain goes through the controller's replication monitor: the node
        stops receiving placements, every block whose *only* replica it
        holds is copied elsewhere, and once
        :meth:`~repro.hdfs.replication.ReplicationMonitor.is_drained`
        turns true the replicas are dropped via
        ``finalize_decommission``.  Blocks left under-replicated (the
        ``replication >= 2`` case) are repaired by the monitor's sweep in
        the background.  Detach then removes the datanode everywhere: it
        stops serving, the namenode and vRead tables forget it, and the
        VM's threads are retired from its host's scheduler.
        """
        cluster = self._cluster
        datanode = None
        for candidate in cluster.datanodes:
            if candidate.datanode_id == datanode_id:
                datanode = candidate
                break
        if datanode is None:
            gone = (f" ({datanode_id!r} was already decommissioned)"
                    if datanode_id in self.decommissioned else "")
            raise MembershipError(
                f"no live datanode {datanode_id!r}{gone}"
                f"{_suggest(datanode_id, self.live_datanode_ids())}; "
                f"live datanodes: {self.live_datanode_ids()}")
        if len(cluster.datanodes) == 1:
            raise MembershipError(
                f"cannot decommission {datanode_id!r}: it is the last "
                f"datanode in the cluster")

        monitor = self.ensure_monitor()
        monitor.decommission(datanode_id)
        interval = (poll_interval if poll_interval is not None
                    else monitor.heartbeat_interval)
        while not monitor.is_drained(datanode_id):
            yield cluster.sim.timeout(interval)
        monitor.finalize_decommission(datanode_id)

        # Detach: the node leaves every layer it was wired into.
        vm = datanode.vm
        datanode.shutdown()
        monitor.forget_datanode(datanode_id)
        cluster.namenode.unregister_datanode(datanode_id)
        if cluster.vread_manager is not None:
            cluster.vread_manager.detach_datanode(datanode_id)
        cluster.datanodes.remove(datanode)
        cluster.datanode_vms.remove(vm)
        vm.host.vms.remove(vm)
        for thread in (vm.vcpu, vm.vhost, vm.qemu_io):
            vm.host.scheduler.retire_thread(thread)
        self.decommissioned.append(datanode_id)
        self._bump("datanode-decommissioned", datanode=datanode_id)
        return datanode_id

    # -------------------------------------------------------------- migration
    def migrate(self, vm: Union[str, VirtualMachine], host,
                ram_bytes: Optional[int] = None,
                downtime_seconds: Optional[float] = None):
        """Generator: live-migrate ``vm`` (name, datanode id, or object).

        Wraps :func:`~repro.virt.migration.migrate_vm` with the full
        bookkeeping the ``MigrateVm`` fault used to do by hand: source
        threads retired, vRead hash tables rebound on every host (paper
        Section 6), coverage extended to a freshly-created service on the
        destination, and the RDMA rack domain recomputed implicitly (the
        transports read live host positions per request).
        """
        cluster = self._cluster
        vm = self._resolve_vm(vm)
        target = self._resolve_host(host)
        if target is vm.host:
            raise MembershipError(
                f"cannot migrate {vm.name!r}: target host {target.name!r} "
                f"is the VM's current host")
        manager = cluster.vread_manager
        if (manager is not None and vm.name in manager._libraries):
            raise MembershipError(
                f"cannot migrate {vm.name!r}: it has a vRead client "
                f"attachment (channel + daemon pinned to "
                f"{vm.host.name!r})")
        kwargs = {}
        if ram_bytes is not None:
            kwargs["ram_bytes"] = ram_bytes
        if downtime_seconds is not None:
            kwargs["downtime_seconds"] = downtime_seconds
        yield from migrate_vm(vm, target, cluster.lan, **kwargs)
        if manager is not None:
            for datanode in cluster.datanodes:
                if datanode.vm is vm:
                    manager.rebind_datanode(datanode)
                    manager.ensure_coverage()
        self._bump("vm-migrated", vm=vm.name, host=target.name)
        return vm

    def __repr__(self) -> str:
        return (f"<ClusterController v{self.version} "
                f"datanodes={self.live_datanode_ids()} "
                f"clients={self.client_vm_names()}>")
