"""The fault catalogue and the :class:`FaultPlan` DSL.

A plan is a declarative schedule of typed faults::

    plan = (FaultPlan()
            .at(0.05, DatanodeCrash("dn1", duration=0.5))
            .at(0.10, RdmaFlap(duration=0.3))
            .at(0.00, DiskLatencySpike("dn2", factor=8.0, duration=1.0)))

``at`` times are **relative to arming** (see
:class:`~repro.faults.injector.FaultInjector`), not absolute sim times —
cluster construction and dataset loading advance the clock, and a plan
should not care by how much.

Every fault is a small dataclass with an ``inject(cluster, counters)``
generator: apply the fault, optionally hold it for ``duration`` sim
seconds, then revert.  Faults resolve their targets from the cluster's
topology at injection time, so a plan can be built before the cluster
and reused across layouts: host targets accept either a host name or a
datanode id ("the host of dn2"), VM targets accept a VM name or a
datanode id, and defaults mean "the first sensible target" (first host,
client VM, first datanode) rather than a hard-coded name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional


def _find_host(cluster, name: Optional[str]):
    """Resolve a host target: a host name, or a datanode id ("host of dn2")."""
    if name is None:
        return cluster.hosts[0]
    for host in cluster.hosts:
        if host.name == name:
            return host
    for datanode in cluster.datanodes:
        if datanode.datanode_id == name:
            return datanode.vm.host
    raise ValueError(f"no host named {name!r}; cluster has "
                     f"{[h.name for h in cluster.hosts]} "
                     f"(datanode ids also resolve: "
                     f"{[d.datanode_id for d in cluster.datanodes]})")


def _find_vm(cluster, name: Optional[str]):
    """Resolve a VM target: a VM name, or a datanode id ("dn2's VM")."""
    if name is None:
        return cluster.client_vm
    for host in cluster.hosts:
        for vm in host.vms:
            if vm.name == name:
                return vm
    for datanode in cluster.datanodes:
        if datanode.datanode_id == name:
            return datanode.vm
    raise ValueError(
        f"no VM named {name!r}; cluster has "
        f"{[vm.name for host in cluster.hosts for vm in host.vms]} "
        f"(datanode ids also resolve: "
        f"{[d.datanode_id for d in cluster.datanodes]})")


def _find_datanode(cluster, datanode_id: str):
    """Resolve a datanode id against the cluster's *current* membership.

    The namenode registry alone is not enough once clusters churn: a plan
    naming a decommissioned datanode should fail loudly with the live
    targets, not silently hit a stale registration or no-op.
    """
    for datanode in cluster.datanodes:
        if datanode.datanode_id == datanode_id:
            return datanode
    live = [d.datanode_id for d in cluster.datanodes]
    gone = ""
    membership = getattr(cluster, "membership", None)
    if membership is not None and datanode_id in membership.decommissioned:
        gone = f" ({datanode_id!r} was decommissioned)"
    raise ValueError(
        f"no live datanode {datanode_id!r}{gone}; live datanodes: {live}")


def _find_devices(cluster, host_name: Optional[str], tier: Optional[str]):
    """Resolve disk-fault targets: one host's device, or a whole tier's.

    ``tier`` selects every host whose storage device is of that class
    (``"hdd"`` / ``"ssd"`` / ``"nvme"``) — how a plan degrades "all the
    cold-tier disks" without naming hosts.  Mutually exclusive with
    ``host_name``.
    """
    if tier is not None:
        if host_name is not None:
            raise ValueError(
                "pass either host_name or tier, not both "
                f"({host_name!r} and {tier!r})")
        devices = [host.storage for host in cluster.hosts
                   if host.storage.profile.tier == tier]
        if not devices:
            raise ValueError(
                f"no host has a {tier!r} storage device; cluster tiers: "
                f"{sorted({h.storage.profile.tier for h in cluster.hosts})}")
        return devices
    return [_find_host(cluster, host_name).storage]


def _daemon_for(cluster, vm_name: Optional[str]):
    manager = cluster.vread_manager
    if manager is None:
        raise ValueError("cluster has no vRead deployment (vread=False)")
    vm = _find_vm(cluster, vm_name)
    return manager.daemon_of(vm)


class Fault:
    """Base class: a typed, revertible fault."""

    #: Counter suffix: the injector records ``fault.<label>``.
    label = "generic"

    def describe(self) -> str:
        return self.label

    def inject(self, cluster, counters):
        """Generator: apply (and, after ``duration``, revert) the fault."""
        raise NotImplementedError
        yield  # simlint: disable=yield-discipline


@dataclass
class DatanodeCrash(Fault):
    """Datanode VM dies: in-flight transfers drop, new requests refused.

    With a ``duration`` the datanode restarts afterwards (VM reboot)."""
    datanode_id: str
    duration: Optional[float] = None
    label = "datanode-crash"

    def describe(self) -> str:
        return f"{self.label}({self.datanode_id})"

    def inject(self, cluster, counters):
        datanode = _find_datanode(cluster, self.datanode_id)
        datanode.stop()
        if self.duration is not None:
            yield cluster.sim.timeout(self.duration)
            datanode.start()
            counters.count("fault.datanode-restart",
                           datanode=self.datanode_id)


@dataclass
class DaemonCrash(Fault):
    """The vRead daemon serving ``vm_name`` dies mid-whatever-it-was-doing.

    With a ``duration`` the daemon restarts over a fresh channel."""
    vm_name: Optional[str] = None
    duration: Optional[float] = None
    label = "daemon-crash"

    def describe(self) -> str:
        return f"{self.label}({self.vm_name or 'client'})"

    def inject(self, cluster, counters):
        daemon = _daemon_for(cluster, self.vm_name)
        daemon.crash()
        if self.duration is not None:
            yield cluster.sim.timeout(self.duration)
            daemon.restart()
            counters.count("fault.daemon-restart", vm=daemon.vm.name)


@dataclass
class RingStall(Fault):
    """The ivshmem rings of ``vm_name``'s channel wedge for ``duration``."""
    vm_name: Optional[str] = None
    duration: float = 0.5
    label = "ring-stall"

    def describe(self) -> str:
        return f"{self.label}({self.vm_name or 'client'})"

    def inject(self, cluster, counters):
        daemon = _daemon_for(cluster, self.vm_name)
        channel = daemon.channel
        channel.request_ring.stall()
        channel.response_ring.stall()
        yield cluster.sim.timeout(self.duration)
        # The channel may have been reset (daemon restart) while stalled;
        # unstall whatever rings it has now as well as the ones we stalled.
        channel.request_ring.unstall()
        channel.response_ring.unstall()


@dataclass
class RdmaFlap(Fault):
    """The RoCE link drops; vRead remote reads fall back to TCP."""
    duration: float = 0.5
    label = "rdma-flap"

    def inject(self, cluster, counters):
        cluster.rdma.fail()
        yield cluster.sim.timeout(self.duration)
        cluster.rdma.restore()
        counters.count("fault.rdma-restore")


@dataclass
class DiskLatencySpike(Fault):
    """A host's storage device slows by ``factor`` (noisy neighbour /
    flaky disk).  ``tier="hdd"`` targets every device of that class
    instead of one host."""
    host_name: Optional[str] = None
    factor: float = 10.0
    duration: float = 1.0
    tier: Optional[str] = None
    label = "disk-latency-spike"

    def describe(self) -> str:
        target = (f"tier:{self.tier}" if self.tier
                  else self.host_name or "first-host")
        return f"{self.label}({target}x{self.factor:g})"

    def inject(self, cluster, counters):
        devices = _find_devices(cluster, self.host_name, self.tier)
        for device in devices:
            device.set_latency_factor(self.factor)
        yield cluster.sim.timeout(self.duration)
        for device in devices:
            device.set_latency_factor(1.0)


@dataclass
class DiskOutage(Fault):
    """A host's storage device fails every request with ``DiskError``.
    ``tier="hdd"`` targets every device of that class instead of one
    host."""
    host_name: Optional[str] = None
    duration: float = 0.5
    tier: Optional[str] = None
    label = "disk-outage"

    def describe(self) -> str:
        target = (f"tier:{self.tier}" if self.tier
                  else self.host_name or "first-host")
        return f"{self.label}({target})"

    def inject(self, cluster, counters):
        devices = _find_devices(cluster, self.host_name, self.tier)
        for device in devices:
            device.set_failing(True)
        yield cluster.sim.timeout(self.duration)
        for device in devices:
            device.set_failing(False)


@dataclass
class ImageFault(Fault):
    """``vm_name``'s disk image becomes unreadable through loop mounts
    (snapshot-chain corruption); the vRead path degrades for that VM.

    Default target: the first datanode VM in the topology."""
    vm_name: Optional[str] = None
    duration: float = 0.5
    label = "image-fault"

    def describe(self) -> str:
        return f"{self.label}({self.vm_name or 'first-datanode'})"

    def inject(self, cluster, counters):
        vm = (_find_vm(cluster, self.vm_name) if self.vm_name
              else cluster.datanode_vms[0])
        vm.image.set_faulted(True)
        yield cluster.sim.timeout(self.duration)
        vm.image.set_faulted(False)


@dataclass
class HostCacheDrop(Fault):
    """Drop one host's page cache (echo 3 > drop_caches)."""
    host_name: Optional[str] = None
    label = "host-cache-drop"

    def describe(self) -> str:
        return f"{self.label}({self.host_name or 'first-host'})"

    def inject(self, cluster, counters):
        host = _find_host(cluster, self.host_name)
        host.drop_caches()
        return
        yield  # simlint: disable=yield-discipline


@dataclass
class GuestCacheDrop(Fault):
    """Drop one VM's guest page cache."""
    vm_name: Optional[str] = None
    label = "guest-cache-drop"

    def describe(self) -> str:
        return f"{self.label}({self.vm_name or 'client'})"

    def inject(self, cluster, counters):
        vm = _find_vm(cluster, self.vm_name)
        vm.drop_guest_cache()
        return
        yield  # simlint: disable=yield-discipline


@dataclass
class MigrateVm(Fault):
    """Live-migrate a (datanode) VM to another host mid-read.

    A thin wrapper over ``cluster.membership.migrate`` — the controller
    retires the source threads, rebinds the vRead hash tables on every
    host (paper Section 6), and versions the change.  Defaults resolve
    from the topology: the first datanode VM moves to the next host after
    its current one."""
    vm_name: Optional[str] = None
    target_host: Optional[str] = None
    label = "vm-migration"

    def describe(self) -> str:
        return (f"{self.label}({self.vm_name or 'first-datanode'}"
                f"->{self.target_host or 'next-host'})")

    def inject(self, cluster, counters):
        vm = (_find_vm(cluster, self.vm_name) if self.vm_name
              else cluster.datanode_vms[0])
        if self.target_host is not None:
            target = _find_host(cluster, self.target_host)
        else:
            index = cluster.hosts.index(vm.host)
            target = cluster.hosts[(index + 1) % len(cluster.hosts)]
        yield from cluster.membership.migrate(vm, target)
        counters.count("fault.vm-migration-done", vm=vm.name,
                       host=target.name)


@dataclass
class DecommissionDatanode(Fault):
    """Gracefully drain and detach a datanode mid-workload.

    Delegates to ``cluster.membership.decommission_datanode``: the node
    keeps serving reads while its sole replicas are copied elsewhere,
    then it leaves the cluster entirely (namenode, vRead tables, fabric
    bookkeeping)."""
    datanode_id: str
    poll_interval: Optional[float] = None
    label = "decommission"

    def describe(self) -> str:
        return f"{self.label}({self.datanode_id})"

    def inject(self, cluster, counters):
        _find_datanode(cluster, self.datanode_id)  # fail fast, clear error
        yield from cluster.membership.decommission_datanode(
            self.datanode_id, poll_interval=self.poll_interval)
        counters.count("fault.decommission-done",
                       datanode=self.datanode_id)


@dataclass
class _TimedEntry:
    at: float
    fault: Fault


class FaultPlan:
    """A declarative schedule of faults; consumed by ``FaultInjector``."""

    def __init__(self):
        self.timed: List[_TimedEntry] = []

    def at(self, seconds: float, fault: Fault) -> "FaultPlan":
        """Schedule ``fault`` ``seconds`` after the injector is armed."""
        if seconds < 0:
            raise ValueError(f"fault time must be non-negative: {seconds}")
        if not isinstance(fault, Fault):
            raise TypeError(f"expected a Fault, got {fault!r}")
        self.timed.append(_TimedEntry(seconds, fault))
        return self

    def __len__(self) -> int:
        return len(self.timed)

    def describe(self) -> str:
        """Human-readable schedule, one line per entry."""
        lines = [f"t+{entry.at:g}s: {entry.fault.describe()}"
                 for entry in sorted(self.timed, key=lambda e: e.at)]
        return "\n".join(lines) if lines else "(empty plan)"

    def __repr__(self) -> str:
        return f"<FaultPlan timed={len(self.timed)}>"
