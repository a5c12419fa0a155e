"""Build simulated virtual Hadoop clusters from declarative topologies.

The builder is a thin interpreter over a
:class:`~repro.cluster.topology.TopologySpec`: racks become switch
domains on the LAN fabric, hosts become :class:`PhysicalHost` instances,
and VM specs become client / datanode / lookbusy / auxiliary VMs wired
to the HDFS services.  The default spec is the paper's Figure 10
testbed (:func:`~repro.cluster.topology.paper_fig10`)::

    Host1: VM1 client+namenode | VM2 datanode1 | [VM3, VM4: lookbusy 85%]
    Host2: VM1 datanode2       | [VM2..VM4: lookbusy 85%]

``total_vms_per_host=2`` gives the paper's "2vms" scenarios (no background
load); ``total_vms_per_host=4`` gives the "4vms" scenarios where vCPU and
I/O threads contend for the quad-core hosts.  Multi-rack layouts come
from :func:`~repro.cluster.topology.rack_cluster` or a hand-built spec
passed as ``ClusterConfig(topology=...)``.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, fields as dataclass_fields
from typing import Dict, List, Optional, Union

from repro.cluster.membership import ClusterController
from repro.cluster.topology import TopologySpec, paper_fig10
from repro.storage.device import DeviceProfile, resolve_profile
from repro.core import VReadManager
from repro.core.integration import VReadDfsClient
from repro.faults import FaultInjector, FaultPlan
from repro.hdfs import Datanode, DfsClient, HdfsConfig, Namenode
from repro.hostmodel import PhysicalHost
from repro.hostmodel.costs import CostModel
from repro.hostmodel.frequency import GHZ_2_0
from repro.metrics.accounting import FaultCounters
from repro.metrics.tracing import Tracer
from repro.net.lan import Lan
from repro.net.rdma import RdmaLink
from repro.net.tcp import VmNetwork
from repro.sim import Simulator
from repro.sim.rng import RandomStreams
from repro.virt.vm import VirtualMachine
from repro.workloads.lookbusy import Lookbusy


@dataclass
class ClusterConfig:
    """Knobs for a :class:`VirtualHadoopCluster`."""

    #: Physical hosts (>=2 for the remote/hybrid scenarios).  Layout knob:
    #: only consulted when ``topology`` is left None.
    n_hosts: int = 2
    #: Hosts carrying a datanode VM (host 1..N); None = every host.
    #: Extra hosts stay empty for auxiliary services (e.g. the MySQL box in
    #: the Sqoop experiment).  Layout knob (see ``n_hosts``).
    n_datanodes: Optional[int] = None
    cores_per_host: int = 4
    frequency_hz: float = GHZ_2_0
    #: Total VMs per host including client/datanodes ("2vms" vs "4vms").
    #: Layout knob (see ``n_hosts``).
    total_vms_per_host: int = 2
    lookbusy_utilization: float = 0.85
    #: HDFS block size (paper default 64 MB; shrink for quick runs).
    block_size: int = 64 * 1024 * 1024
    replication: int = 1
    #: Install vRead and expose a vRead-enabled client.
    vread: bool = False
    #: Remote daemon transport: 'rdma' (RoCE) or 'tcp'.
    vread_transport: str = "rdma"
    #: Section 6 ablation: daemons bypass the host filesystem.
    vread_bypass_host_fs: bool = False
    #: ivshmem ring geometry + response chunking (ablation knobs).
    vread_ring_slots: int = 1024
    vread_ring_slot_bytes: int = 4096
    vread_chunk_bytes: int = 1 << 20
    #: HDFS data-transfer packet size (None = HdfsConfig default).
    packet_bytes: Optional[int] = None
    costs: Optional[CostModel] = None
    #: Seed for every named random stream the cluster hands out (retry
    #: jitter, chaos plans, workload randomness).  Same seed, same run.
    seed: int = 0
    #: Fault schedule, executed once ``cluster.faults.arm()`` is called.
    faults: Optional[FaultPlan] = None
    #: Declarative cluster layout.  None (the default) builds the paper's
    #: Figure 10 testbed from the legacy layout knobs above; pass a
    #: :func:`~repro.cluster.topology.rack_cluster` or hand-built spec for
    #: anything else.  Mutually exclusive with the layout knobs.
    topology: Optional[TopologySpec] = None
    #: Default storage tier for every host: a profile name ("hdd" / "ssd"
    #: / "nvme"), a :class:`~repro.storage.device.DeviceProfile`, or None
    #: for the paper's SSD.  Per-host ``HostSpec(storage=...)``
    #: declarations in the topology override this default.
    storage: Optional[Union[str, DeviceProfile]] = None

    @classmethod
    def from_kwargs(cls, **kwargs) -> "ClusterConfig":
        """Build a config, rejecting unknown keys with a helpful error.

        Unlike the bare dataclass constructor (whose ``TypeError`` names
        nothing useful), this lists the valid keys and suggests the closest
        match for a typo.
        """
        valid = {f.name for f in dataclass_fields(cls)}
        unknown = sorted(set(kwargs) - valid)
        if unknown:
            parts = []
            for key in unknown:
                close = difflib.get_close_matches(key, valid, n=1)
                hint = f" (did you mean {close[0]!r}?)" if close else ""
                parts.append(f"{key!r}{hint}")
            raise TypeError(
                f"unknown ClusterConfig option(s): {', '.join(parts)}; "
                f"valid options are: {', '.join(sorted(valid))}")
        return cls(**kwargs)

    def __post_init__(self):
        # All layout validation lives in the topology presets: the legacy
        # knobs are just shorthand for the paper_fig10 spec, so mixing them
        # with an explicit spec would be ambiguous.
        if self.topology is not None:
            if (self.n_hosts != 2 or self.n_datanodes is not None
                    or self.total_vms_per_host != 2):
                raise ValueError(
                    "pass either topology=... or the legacy layout knobs "
                    "(n_hosts / n_datanodes / total_vms_per_host), not both")
            self.topology.validate()
        else:
            self.topology = paper_fig10(
                n_hosts=self.n_hosts, n_datanodes=self.n_datanodes,
                total_vms_per_host=self.total_vms_per_host)
        # Fail fast on storage typos (did-you-mean, like from_kwargs).
        resolve_profile(self.storage)


class ClusterClients:
    """The one façade for obtaining HDFS clients from a cluster.

    Replaces the old trio ``cluster.client()`` / ``cluster.client_for(vm)``
    / ``cluster.vanilla_client()`` with a single explicit call::

        cluster.clients.get()                        # auto, primary VM
        cluster.clients.get(mode="vanilla")          # plain TCP path
        cluster.clients.get(mode="vread", vm=vm2)    # vRead, specific VM

    Modes:

    * ``"auto"`` — vRead-enabled client when the cluster was built with
      ``vread=True``, the vanilla client otherwise (what experiments want).
    * ``"vread"`` — require the vRead path; error if not deployed.
    * ``"vanilla"`` — the plain datanode-TCP path, even on a vRead cluster
      (e.g. to load datasets identically in both modes).
    """

    MODES = ("auto", "vread", "vanilla")

    def __init__(self, cluster: "VirtualHadoopCluster"):
        self._cluster = cluster
        self._vanilla: dict = {}

    def get(self, mode: str = "auto",
            vm: Optional[VirtualMachine] = None):
        """An HDFS client for ``vm`` (default: the primary client VM)."""
        if mode not in self.MODES:
            raise ValueError(
                f"unknown client mode {mode!r}; expected one of {self.MODES}")
        cluster = self._cluster
        if vm is None:
            vm = cluster.client_vm
        if mode == "auto":
            mode = "vread" if cluster.vread_manager is not None else "vanilla"
        if mode == "vread":
            if cluster.vread_manager is None:
                raise ValueError(
                    "mode='vread' on a cluster built without vread=True; "
                    "pass vread=True to ClusterConfig or use mode='vanilla'")
            return cluster.vread_manager.attach_client(vm)
        if vm is cluster.client_vm:
            return cluster._vanilla_client
        client = self._vanilla.get(vm.name)
        if client is None:
            client = DfsClient(vm, cluster.namenode, cluster.network,
                               counters=cluster.fault_counters,
                               retry_rng=cluster.rng.stream("dfs-retry"))
            self._vanilla[vm.name] = client
        return client

    def __repr__(self) -> str:
        mode = "vread" if self._cluster.vread_manager is not None else "vanilla"
        return f"<ClusterClients auto->{mode}>"


class VirtualHadoopCluster:
    """A ready-to-use simulated deployment, interpreted from a spec."""

    def __init__(self, config: Optional[ClusterConfig] = None, **overrides):
        if config is None:
            config = ClusterConfig.from_kwargs(**overrides)
        elif overrides:
            raise ValueError("pass either a config or keyword overrides")
        self.config = config
        #: The declarative layout this cluster was interpreted from.
        self.topology: TopologySpec = config.topology
        self.costs = config.costs or CostModel()
        self.sim = Simulator()
        #: Named deterministic random streams, all derived from config.seed.
        self.rng = RandomStreams(config.seed)
        self.tracer = Tracer()
        self.fault_counters = FaultCounters(
            self.tracer, clock=lambda: self.sim.now)
        self.lan = Lan(self.sim, self.costs,
                       oversubscription=self.topology.oversubscription)
        self.network = VmNetwork(self.sim, self.lan, self.costs)
        self.rdma = RdmaLink(self.sim, self.lan, self.costs)

        # --- physical layer: hosts attach to the fabric rack by rack.
        self.hosts: List[PhysicalHost] = []
        self._hosts_by_name: Dict[str, PhysicalHost] = {}
        for rack in self.topology.racks:
            for host_spec in rack.hosts:
                host = PhysicalHost(self.sim, host_spec.name,
                                    cores=config.cores_per_host,
                                    frequency_hz=config.frequency_hz,
                                    costs=self.costs,
                                    storage=(host_spec.storage
                                             if host_spec.storage is not None
                                             else config.storage))
                self.lan.attach(host, rack=rack.name)
                self.hosts.append(host)
                self._hosts_by_name[host_spec.name] = host

        # --- VM layer, role by role.  The phase order (clients, datanodes,
        # HDFS services, aux, background) fixes the event-creation order and
        # therefore byte-identical timelines for the default spec.
        self.client_vms: List[VirtualMachine] = [
            self._place(host_spec, vm_spec)
            for _, host_spec, vm_spec in self.topology.placements("client")]
        #: The primary client VM; also hosts the namenode (paper layout).
        self.client_vm = self.client_vms[0]

        datanode_placements = self.topology.placements("datanode")
        self.datanode_vms: List[VirtualMachine] = [
            self._place(host_spec, vm_spec)
            for _, host_spec, vm_spec in datanode_placements]

        hdfs_kwargs = {"block_size": config.block_size,
                       "replication": config.replication}
        if config.packet_bytes is not None:
            hdfs_kwargs["packet_bytes"] = config.packet_bytes
        self.hdfs_config = HdfsConfig(**hdfs_kwargs)
        self.namenode = Namenode(self.hdfs_config, vm=self.client_vm)
        # Placement decisions show up in the trace as placement.* events.
        self.namenode.policy.counters = self.fault_counters
        self.datanodes: List[Datanode] = [
            Datanode(vm_spec.datanode_id, vm, self.namenode, self.network)
            for (_, _, vm_spec), vm in zip(datanode_placements,
                                           self.datanode_vms)]

        self.aux_vms: List[VirtualMachine] = [
            self._place(host_spec, vm_spec)
            for _, host_spec, vm_spec in self.topology.placements("aux")]

        # --- background lookbusy VMs (the paper's "4vms" contention).
        self.lookbusy: List[Lookbusy] = []
        self.background_vms: List[VirtualMachine] = []
        for _, host_spec, vm_spec in self.topology.placements("background"):
            vm = self._place(host_spec, vm_spec)
            self.background_vms.append(vm)
            self.lookbusy.append(Lookbusy(vm, config.lookbusy_utilization))

        # --- vRead deployment.
        self.vread_manager: Optional[VReadManager] = None
        if config.vread:
            self.vread_manager = VReadManager(
                self.namenode, self.network, self.lan,
                rdma_link=self.rdma, transport=config.vread_transport,
                bypass_host_fs=config.vread_bypass_host_fs,
                ring_slots=config.vread_ring_slots,
                ring_slot_bytes=config.vread_ring_slot_bytes,
                channel_chunk_bytes=config.vread_chunk_bytes,
                counters=self.fault_counters,
                retry_rng=self.rng.stream("dfs-retry"))

        self._vanilla_client = DfsClient(
            self.client_vm, self.namenode, self.network,
            counters=self.fault_counters,
            retry_rng=self.rng.stream("dfs-retry"))

        #: The one way to get HDFS clients (vread/vanilla/auto).
        self.clients = ClusterClients(self)
        #: The live membership control plane: add/decommission datanodes
        #: and live migration with full bookkeeping.
        #: Construction is pure bookkeeping (no events, no RNG), so
        #: churn-free clusters behave byte-identically to the static path.
        self.membership = ClusterController(self)
        #: Fault-injection handle for ``config.faults``; call
        #: ``cluster.faults.arm()`` once the workload is about to start.
        self.faults = FaultInjector(self, config.faults, self.fault_counters)

    def _place(self, host_spec, vm_spec) -> VirtualMachine:
        return VirtualMachine(self._hosts_by_name[host_spec.name],
                              vm_spec.name)

    # --------------------------------------------------------------- topology
    def host_named(self, name: str) -> PhysicalHost:
        """The host called ``name`` (clear error listing valid names)."""
        try:
            return self._hosts_by_name[name]
        except KeyError:
            raise ValueError(f"no host named {name!r}; cluster has "
                             f"{[h.name for h in self.hosts]}")

    def host_of_datanode(self, datanode_id: str) -> PhysicalHost:
        """The physical host carrying datanode ``datanode_id``."""
        for datanode in self.datanodes:
            if datanode.datanode_id == datanode_id:
                return datanode.vm.host
        raise ValueError(
            f"no datanode {datanode_id!r}; cluster has "
            f"{[d.datanode_id for d in self.datanodes]}")

    # ------------------------------------------------------------------- runs
    def run(self, process):
        """Run the simulation until ``process`` completes; return its value."""
        return self.sim.run_until_complete(process)

    def run_all(self, processes):
        """Run until every process in ``processes`` completes."""
        results = []
        for process in processes:
            results.append(self.sim.run_until_complete(process))
        return results

    def settle(self) -> None:
        """Drain pending events (only safe with background load stopped)."""
        self.sim.run()

    def stop_background(self) -> None:
        for hog in self.lookbusy:
            hog.stop()

    # ------------------------------------------------------------------ caches
    def drop_all_caches(self) -> None:
        """Cold-read preparation: drop every guest and host cache."""
        for host in self.hosts:
            host.drop_caches()
            for vm in host.vms:
                vm.drop_guest_cache()

    def set_frequency(self, frequency_hz: float) -> None:
        """cpufreq-set on every host."""
        for host in self.hosts:
            host.set_frequency(frequency_hz)

    # ------------------------------------------------------------------- data
    def write_dataset(self, path: str, source, favored=None,
                      spread: bool = False, replication: Optional[int] = None,
                      hot: bool = False):
        """Generator: load a dataset through the vanilla write path."""
        yield from self._vanilla_client.write_file(
            path, source, replication=replication, favored=favored,
            spread=spread, hot=hot)

    def __repr__(self) -> str:
        mode = "vRead" if self.config.vread else "vanilla"
        counts = self.topology.counts()
        return (f"<VirtualHadoopCluster {mode} racks={counts['racks']} "
                f"hosts={counts['hosts']} "
                f"freq={self.config.frequency_hz / 1e9:.1f}GHz>")
