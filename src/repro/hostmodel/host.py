"""The physical machine: cores + scheduler + storage + host page cache.

Matches the paper's testbed node: quad-core Xeon (frequency settable to
1.6/2.0/3.2 GHz via cpufreq), one storage device holding all VM disk
images (the paper's SSD by default; any
:class:`~repro.storage.device.DeviceProfile` tier via ``storage=``), a
10 Gbps RoCE NIC (attached by the network layer), running KVM.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.hostmodel.costs import CostModel
from repro.hostmodel.cpu import CpuScheduler, Thread
from repro.metrics.accounting import CpuAccounting
from repro.sim import Simulator
from repro.storage.device import (
    ProfileLike,
    StorageDevice,
    make_device,
    resolve_profile,
)
from repro.storage.image import DiskImage
from repro.storage.loopdev import LoopMount
from repro.storage.pagecache import PageCache


class PhysicalHost:
    """A virtualization host in the simulated cluster."""

    def __init__(self, sim: Simulator, name: str, cores: int = 4,
                 frequency_hz: float = 3.2e9,
                 costs: Optional[CostModel] = None,
                 host_cache_bytes: float = float("inf"),
                 storage: ProfileLike = None):
        self.sim = sim
        self.name = name
        self.costs = costs or CostModel()
        self.accounting = CpuAccounting()
        self.scheduler = CpuScheduler(sim, cores, frequency_hz,
                                      self.accounting, self.costs,
                                      name=f"{name}.sched")
        profile = resolve_profile(storage)
        #: The host's image-holding block device (SSD unless the topology
        #: declares another tier).
        self.storage: StorageDevice = make_device(
            sim, profile, costs=self.costs,
            name=f"{name}.{profile.tier}")
        #: Host kernel page cache over VM disk-image pages.
        self.page_cache = PageCache(host_cache_bytes, name=f"{name}.pagecache")
        #: VMs placed on this host (appended by the virt layer).
        self.vms: List = []
        #: Read-only loop mounts of datanode images (by image name).
        self.mounts: Dict[str, LoopMount] = {}
        #: Physical NIC (attached by the network layer when wired to a LAN).
        self.nic = None
        #: Rack name (stamped by the network layer; None = unattached).
        self.rack: Optional[str] = None

    # --------------------------------------------------------------- storage
    @property
    def storage_tier(self) -> str:
        """The device-class name of this host's storage ("ssd", ...)."""
        return self.storage.profile.tier

    # ------------------------------------------------------------------ CPU
    @property
    def cores(self) -> int:
        return self.scheduler.cores

    @property
    def frequency_hz(self) -> float:
        return self.scheduler.frequency_hz

    def thread(self, name: str) -> Thread:
        """Create a host-level schedulable thread (daemons, vhost, ...)."""
        return self.scheduler.thread(f"{self.name}.{name}")

    # ---------------------------------------------------------------- mounts
    def mount_image(self, image: DiskImage) -> LoopMount:
        """losetup/kpartx: mount a VM disk image read-only under /mnt."""
        if image.name in self.mounts:
            return self.mounts[image.name]
        mount = LoopMount(image, mount_point=f"/mnt/{image.name}")
        self.mounts[image.name] = mount
        return mount

    def unmount_image(self, image_name: str) -> None:
        if image_name not in self.mounts:
            raise KeyError(f"{image_name!r} is not mounted on {self.name}")
        del self.mounts[image_name]

    # ----------------------------------------------------------------- cache
    def drop_caches(self) -> None:
        """Drop the host page cache (the paper's cold-read preparation)."""
        self.page_cache.drop()

    def __repr__(self) -> str:
        return (f"<PhysicalHost {self.name} cores={self.cores} "
                f"freq={self.frequency_hz/1e9:.1f}GHz vms={len(self.vms)}>")
