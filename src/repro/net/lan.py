"""The physical fabric: host NICs, top-of-rack switches, aggregation.

Transmission time is paid on the sending host's NIC (a serialized
resource), plus a fixed one-way switching/propagation latency.  The
receiving side's CPU costs are charged by the protocol layers (TCP or
RDMA), not here — DMA puts the bytes in memory either way.

Rack awareness (multi-rack topologies): every host attaches to the LAN
under a rack name.  Traffic between hosts of the same rack crosses only
the top-of-rack switch — the flat single-switch model the paper's
two-host testbed uses, unchanged.  Traffic between racks additionally
crosses the source rack's **aggregation uplink**, a shared, oversubscribed
resource (bandwidth = sum of the rack's NIC bandwidths divided by the
oversubscription ratio) plus two extra store-and-forward switch hops
(ToR -> aggregation -> ToR).  Single-rack clusters never touch the
uplink, so their timing is byte-identical to the pre-rack model.

:func:`host_distance` exposes the HDFS-style network distance
(``0`` same host / ``2`` same rack / ``4`` cross rack) that the placement
policy and the vRead transport selection consume.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.hostmodel.costs import CostModel
from repro.sim import Resource, SimulationError, Simulator

#: HDFS-style network distances (NetworkTopology.getDistance analogues).
SAME_HOST = 0
SAME_RACK = 2
CROSS_RACK = 4

#: Rack assigned to hosts attached without an explicit rack (flat LAN).
DEFAULT_RACK = "rack1"


def host_distance(host_a, host_b) -> int:
    """Network distance between two physical hosts (0 / 2 / 4).

    Works from the ``rack`` attribute the LAN stamps on attached hosts;
    hosts without one (bare unit-test fixtures) count as same-rack, which
    reproduces the flat-LAN behaviour.
    """
    if host_a is host_b:
        return SAME_HOST
    rack_a = getattr(host_a, "rack", None)
    rack_b = getattr(host_b, "rack", None)
    if rack_a == rack_b or rack_a is None or rack_b is None:
        return SAME_RACK
    return CROSS_RACK


class HostNic:
    """A host's physical NIC: a serialized transmit queue."""

    def __init__(self, sim: Simulator, host, costs: CostModel):
        self.sim = sim
        self.host = host
        self.costs = costs
        self._tx = Resource(sim, capacity=1)
        self.bytes_sent = 0
        self.bytes_received = 0

    def transmit(self, nbytes: int):
        """Generator: occupy the wire for ``nbytes`` (sender side)."""
        if nbytes < 0:
            raise ValueError(f"negative transmit size {nbytes}")
        with self._tx.request() as grant:
            yield grant
            yield self.sim.timeout(
                nbytes / self.costs.nic_bandwidth_bytes_per_sec)
            self.bytes_sent += nbytes

    def __repr__(self) -> str:
        return f"<HostNic {self.host.name} tx={self.bytes_sent}B>"


class RackUplink:
    """A rack's ToR->aggregation uplink: shared, oversubscribed.

    All cross-rack flows leaving the rack serialize on this resource at
    ``(rack NIC bandwidth sum) / oversubscription`` — the fan-in that
    makes cross-rack reads measurably worse than rack-local ones.
    """

    def __init__(self, sim: Simulator, rack: str, costs: CostModel,
                 n_hosts: int, oversubscription: float):
        self.sim = sim
        self.rack = rack
        self.costs = costs
        self.bandwidth_bytes_per_sec = (
            costs.nic_bandwidth_bytes_per_sec * n_hosts / oversubscription)
        self._tx = Resource(sim, capacity=1)
        self.bytes_sent = 0

    def transmit(self, nbytes: int):
        """Generator: occupy the uplink for ``nbytes`` leaving the rack."""
        with self._tx.request() as grant:
            yield grant
            yield self.sim.timeout(nbytes / self.bandwidth_bytes_per_sec)
            self.bytes_sent += nbytes

    def __repr__(self) -> str:
        return (f"<RackUplink {self.rack} "
                f"{self.bandwidth_bytes_per_sec / 1e9:.2f}GB/s "
                f"tx={self.bytes_sent}B>")


class Lan:
    """The switched fabric connecting physical hosts, rack by rack."""

    def __init__(self, sim: Simulator, costs: Optional[CostModel] = None,
                 oversubscription: float = 1.0):
        self.sim = sim
        self.costs = costs or CostModel()
        if oversubscription < 1.0:
            raise SimulationError(
                f"oversubscription must be >= 1.0: {oversubscription}")
        self.oversubscription = oversubscription
        self._nics: Dict[str, HostNic] = {}
        #: host name -> rack name.
        self._racks: Dict[str, str] = {}
        #: rack name -> lazily-built aggregation uplink.
        self._uplinks: Dict[str, RackUplink] = {}

    def attach(self, host, rack: Optional[str] = None) -> HostNic:
        """Wire a host into the fabric under ``rack`` (default: flat LAN)."""
        if host.name in self._nics:
            raise SimulationError(f"{host.name!r} is already attached")
        nic = HostNic(self.sim, host, self.costs)
        self._nics[host.name] = nic
        host.nic = nic
        host.rack = rack or DEFAULT_RACK
        self._racks[host.name] = host.rack
        return nic

    def detach(self, host) -> None:
        """Unwire a host from the fabric (decommissioned hardware).

        Drops the NIC and rack mapping and invalidates the rack's cached
        aggregation uplink so a later rebuild sizes its bandwidth from the
        hosts actually left in the rack.
        """
        if host.name not in self._nics:
            raise SimulationError(f"{host.name!r} is not attached to the LAN")
        del self._nics[host.name]
        rack = self._racks.pop(host.name)
        self._uplinks.pop(rack, None)
        host.nic = None
        host.rack = None

    def nic_of(self, host) -> HostNic:
        try:
            return self._nics[host.name]
        except KeyError:
            raise SimulationError(f"{host.name!r} is not attached to the LAN")

    def rack_of(self, host) -> str:
        try:
            return self._racks[host.name]
        except KeyError:
            raise SimulationError(f"{host.name!r} is not attached to the LAN")

    def uplink_of(self, rack: str) -> RackUplink:
        """The rack's aggregation uplink (built on first cross-rack use)."""
        uplink = self._uplinks.get(rack)
        if uplink is None:
            n_hosts = sum(1 for r in self._racks.values() if r == rack)
            if n_hosts == 0:
                raise SimulationError(f"no hosts in rack {rack!r}")
            uplink = RackUplink(self.sim, rack, self.costs, n_hosts,
                                self.oversubscription)
            self._uplinks[rack] = uplink
        return uplink

    def distance(self, host_a, host_b) -> int:
        """HDFS-style network distance: 0 same host, 2 same rack, 4 cross."""
        return host_distance(host_a, host_b)

    def transfer(self, src_host, dst_host, nbytes: int):
        """Generator: move ``nbytes`` from one host to another on the wire.

        Charges sender NIC occupancy plus the one-way switching latency;
        cross-rack transfers additionally pay the source rack's
        oversubscribed aggregation uplink and two extra switch hops.
        Intra-host "transfers" are a modelling error — callers must
        special-case co-located endpoints.
        """
        if src_host is dst_host:
            raise SimulationError("transfer() called for co-located hosts")
        nic = self.nic_of(src_host)
        yield from nic.transmit(nbytes)
        if host_distance(src_host, dst_host) >= CROSS_RACK:
            yield from self.uplink_of(self.rack_of(src_host)).transmit(nbytes)
            yield self.sim.timeout(2 * self.costs.lan_latency)
        yield self.sim.timeout(self.costs.lan_latency)
        self.nic_of(dst_host).bytes_received += nbytes

    def __repr__(self) -> str:
        return f"<Lan hosts={sorted(self._nics)}>"
