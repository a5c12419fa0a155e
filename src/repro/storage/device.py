"""The pluggable storage-device API: profiles, service-time models, tiers.

A :class:`DeviceProfile` declares *what a device is* — seek latency,
per-request latency, sequential bandwidth, and queue depth — and
:class:`StorageDevice` turns a profile into a simulated device with a
FIFO/parallel service channel.  Three built-in tiers cover the ablation
space (slow to fast):

* ``hdd``  — rotating media: seek charged on every non-sequential offset,
  modest sequential bandwidth, queue depth 1.
* ``ssd``  — the paper's testbed device: seek-free, constants inherited
  from the :class:`~repro.hostmodel.costs.CostModel` so the default
  cluster keeps the original SSD device timeline byte for byte.
* ``nvme`` — seek-free, multi-queue: ``queue_depth`` requests in service
  concurrently, each at full per-request cost.

The device itself burns no CPU — DMA moves the data; CPU costs of the
layers above (virtio, page cache copies) are charged by those layers.

Fault-injection knobs (driven by :mod:`repro.faults`) live on the shared
base so every tier inherits them uniformly: a *latency factor* scales
service time (noisy-neighbour / flaky-virtual-disk spikes) and a
*failing* device raises :class:`DiskError` on every request, which the
layers above translate into replica failover or a vRead fallback.

Construct devices through :func:`make_device`.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass
from typing import Dict, Optional, Union

from repro.sim import Resource, Simulator


class DiskError(Exception):
    """An injected (or modelled) device-level I/O error."""


@dataclass(frozen=True)
class DeviceProfile:
    """Declarative description of one storage-device class.

    ``request_latency`` and ``bandwidth_bytes_per_sec`` may be ``None``,
    meaning "inherit the cost model's SSD constants" — that is how the
    default ``ssd`` profile keeps tracking
    :attr:`~repro.hostmodel.costs.CostModel.ssd_request_latency` and
    :attr:`~repro.hostmodel.costs.CostModel.ssd_bandwidth_bytes_per_sec`
    (including sensitivity-sweep overrides) byte-for-byte.
    """

    #: Device-class name ("hdd" / "ssd" / "nvme" / custom).
    tier: str
    #: Seconds charged when a positioned request is not sequential with
    #: the previous one (head movement + rotational delay; 0 = seek-free).
    seek_latency: float = 0.0
    #: Fixed service seconds per request (None = cost model's SSD value).
    request_latency: Optional[float] = None
    #: Sequential transfer rate (None = cost model's SSD value).
    bandwidth_bytes_per_sec: Optional[float] = None
    #: Requests serviced concurrently (1 = strict FIFO serialization).
    queue_depth: int = 1
    #: Speed rank for tier-aware placement (higher = faster media).
    rank: int = 1

    def __post_init__(self):
        if not self.tier:
            raise ValueError("device profile needs a tier name")
        if self.seek_latency < 0:
            raise ValueError(f"negative seek latency: {self.seek_latency}")
        if self.request_latency is not None and self.request_latency < 0:
            raise ValueError(
                f"negative request latency: {self.request_latency}")
        if (self.bandwidth_bytes_per_sec is not None
                and self.bandwidth_bytes_per_sec <= 0):
            raise ValueError(
                f"bandwidth must be positive: {self.bandwidth_bytes_per_sec}")
        if self.queue_depth < 1:
            raise ValueError(f"queue depth must be >= 1: {self.queue_depth}")


#: The paper's testbed SSD; latency/bandwidth inherit the cost model so a
#: calibrated or sensitivity-perturbed CostModel flows through unchanged.
SSD_PROFILE = DeviceProfile(tier="ssd", seek_latency=0.0,
                            request_latency=None,
                            bandwidth_bytes_per_sec=None,
                            queue_depth=1, rank=1)

#: 7.2k-RPM enterprise SATA disk: ~8 ms average seek + rotational delay,
#: ~160 MB/s outer-track sequential bandwidth.
HDD_PROFILE = DeviceProfile(tier="hdd", seek_latency=8e-3,
                            request_latency=0.5e-3,
                            bandwidth_bytes_per_sec=160e6,
                            queue_depth=1, rank=0)

#: Datacenter NVMe: microsecond request latency, multi-queue parallelism.
NVME_PROFILE = DeviceProfile(tier="nvme", seek_latency=0.0,
                             request_latency=15e-6,
                             bandwidth_bytes_per_sec=3.2e9,
                             queue_depth=8, rank=2)

#: Built-in profiles by tier name (the ``storage=`` vocabulary).
DEVICE_PROFILES: Dict[str, DeviceProfile] = {
    "hdd": HDD_PROFILE,
    "ssd": SSD_PROFILE,
    "nvme": NVME_PROFILE,
}

#: Anything :func:`resolve_profile` accepts.
ProfileLike = Union[str, DeviceProfile, None]


def resolve_profile(profile: ProfileLike) -> DeviceProfile:
    """Normalize a profile argument: name, profile object, or None (SSD)."""
    if profile is None:
        return SSD_PROFILE
    if isinstance(profile, DeviceProfile):
        return profile
    if isinstance(profile, str):
        try:
            return DEVICE_PROFILES[profile]
        except KeyError:
            close = difflib.get_close_matches(profile, DEVICE_PROFILES, n=1)
            hint = f" (did you mean {close[0]!r}?)" if close else ""
            raise KeyError(
                f"unknown storage profile {profile!r}{hint}; built-in "
                f"profiles: {', '.join(sorted(DEVICE_PROFILES))}")
    raise TypeError(
        f"storage profile must be a tier name, a DeviceProfile, or None; "
        f"got {profile!r}")


class StorageDevice:
    """A profile-driven block device with seek-aware service times.

    Requests occupy one of ``profile.queue_depth`` service slots; each
    pays ``seek (if non-sequential) + request latency + size/bandwidth``
    seconds, scaled by the injected ``latency_factor``.  The device
    tracks the head position from *positioned* requests (those passing
    ``offset=``); legacy offset-free requests are treated as sequential
    continuations and never charge seek — which is also what keeps the
    seek-free tiers bit-identical to the pre-profile SSD device.
    """

    def __init__(self, sim: Simulator, profile: ProfileLike = None,
                 costs=None, name: Optional[str] = None):
        # Imported here to keep repro.storage importable without touching
        # repro.hostmodel's package __init__ (which imports storage back).
        from repro.hostmodel.costs import CostModel

        self.sim = sim
        self.profile = resolve_profile(profile)
        self.costs = costs or CostModel()
        self.name = name or self.profile.tier
        self._channel = Resource(sim, capacity=self.profile.queue_depth,
                                 name=f"{self.name}.channel")
        #: Head position one past the last serviced request (None until the
        #: first positioned request establishes it).
        self._head: Optional[int] = None
        #: Total bytes transferred (reads + writes), for reporting.
        self.bytes_read = 0
        self.bytes_written = 0
        self.requests = 0
        #: Non-sequential positioned requests (charged seek_latency each).
        self.seeks = 0
        #: Service-time multiplier (injected latency spike; 1.0 = healthy).
        self.latency_factor = 1.0
        #: When True every request raises :class:`DiskError`.
        self.failing = False
        self.io_errors = 0

    # ------------------------------------------------------------ fault knobs
    def set_latency_factor(self, factor: float) -> None:
        """Degrade (or restore) the device's service time."""
        if factor <= 0:
            raise ValueError(f"latency factor must be positive: {factor}")
        self.latency_factor = factor

    def set_failing(self, failing: bool) -> None:
        """Start/stop failing every request with :class:`DiskError`."""
        self.failing = failing

    def _check_health(self) -> None:
        if self.failing:
            self.io_errors += 1
            raise DiskError(f"{self.name}: injected I/O error")

    # ----------------------------------------------------------- service time
    @property
    def request_latency(self) -> float:
        """Effective fixed per-request seconds (profile or cost model)."""
        if self.profile.request_latency is not None:
            return self.profile.request_latency
        return self.costs.ssd_request_latency

    @property
    def bandwidth_bytes_per_sec(self) -> float:
        """Effective sequential bandwidth (profile or cost model)."""
        if self.profile.bandwidth_bytes_per_sec is not None:
            return self.profile.bandwidth_bytes_per_sec
        return self.costs.ssd_bandwidth_bytes_per_sec

    def _service_time(self, nbytes: int,
                      offset: Optional[int] = None) -> float:
        """Seconds for one request; updates head tracking + seek count."""
        seek = 0.0
        if offset is not None and offset != self._head:
            self.seeks += 1
            seek = self.profile.seek_latency
        if offset is not None:
            self._head = offset + nbytes
        elif self._head is not None:
            self._head += nbytes
        return self.latency_factor * (
            seek + self.request_latency
            + nbytes / self.bandwidth_bytes_per_sec)

    # ------------------------------------------------------------------- I/O
    def read(self, nbytes: int, offset: Optional[int] = None):
        """Generator: occupy a service slot for a read of ``nbytes``.

        ``offset`` positions the request for seek accounting; ``None``
        means "sequential continuation" (the legacy call shape).
        """
        if nbytes < 0:
            raise ValueError(f"negative read size {nbytes}")
        self._check_health()
        with self._channel.request() as grant:
            yield grant
            yield self.sim.timeout(self._service_time(nbytes, offset))
            self.bytes_read += nbytes
            self.requests += 1

    def write(self, nbytes: int, offset: Optional[int] = None):
        """Generator: occupy a service slot for a write of ``nbytes``."""
        if nbytes < 0:
            raise ValueError(f"negative write size {nbytes}")
        self._check_health()
        with self._channel.request() as grant:
            yield grant
            yield self.sim.timeout(self._service_time(nbytes, offset))
            self.bytes_written += nbytes
            self.requests += 1

    @property
    def queue_depth(self) -> int:
        """Requests currently waiting for a service slot (legacy name)."""
        return self._channel.queue_length

    def __repr__(self) -> str:
        return (f"<StorageDevice {self.name} tier={self.profile.tier} "
                f"read={self.bytes_read}B written={self.bytes_written}B "
                f"reqs={self.requests} seeks={self.seeks}>")


def make_device(sim: Simulator, profile: ProfileLike = None, costs=None,
                name: Optional[str] = None) -> StorageDevice:
    """The one factory for storage devices.

    ``profile`` is a tier name (``"hdd"`` / ``"ssd"`` / ``"nvme"``), a
    :class:`DeviceProfile`, or ``None`` for the default SSD.  Unknown
    names raise with a did-you-mean suggestion.
    """
    return StorageDevice(sim, profile, costs=costs, name=name)
