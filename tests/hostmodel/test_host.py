"""Tests for PhysicalHost, frequency presets, and the cost model."""

import pytest

from repro.hostmodel import GHZ_1_6, GHZ_2_0, GHZ_3_2, PhysicalHost, ghz
from repro.hostmodel.costs import CostModel, DEFAULT_COSTS
from repro.hostmodel.frequency import PAPER_FREQUENCIES, frequency_label
from repro.sim import Simulator
from repro.storage.image import DiskImage


def test_frequency_presets():
    assert GHZ_1_6 == pytest.approx(1.6e9)
    assert GHZ_2_0 == pytest.approx(2.0e9)
    assert GHZ_3_2 == pytest.approx(3.2e9)
    assert PAPER_FREQUENCIES == (GHZ_1_6, GHZ_2_0, GHZ_3_2)


def test_ghz_validation():
    with pytest.raises(ValueError):
        ghz(0)


def test_frequency_label():
    assert frequency_label(GHZ_2_0) == "2.0GHz"


def test_cost_model_segments():
    costs = CostModel()
    assert costs.segments(0) == 0
    assert costs.segments(1) == 1
    assert costs.segments(costs.tso_segment_bytes) == 1
    assert costs.segments(costs.tso_segment_bytes + 1) == 2


def test_cost_model_with_overrides_is_a_new_object():
    costs = CostModel()
    tweaked = costs.with_overrides(memcpy_cycles_per_byte=9.9)
    assert tweaked.memcpy_cycles_per_byte == 9.9
    assert costs.memcpy_cycles_per_byte == DEFAULT_COSTS.memcpy_cycles_per_byte
    assert tweaked is not costs


def test_host_construction_defaults():
    sim = Simulator()
    host = PhysicalHost(sim, "host1", cores=4, frequency_hz=GHZ_2_0)
    assert host.cores == 4
    assert host.frequency_hz == GHZ_2_0
    assert host.vms == []
    assert host.nic is None


def test_host_frequency_fixed_at_construction():
    sim = Simulator()
    for freq in (GHZ_3_2, GHZ_1_6):
        host = PhysicalHost(sim, f"host-{freq:.0f}", frequency_hz=freq)
        assert host.frequency_hz == host.scheduler.frequency_hz == freq


def test_host_thread_names_are_prefixed():
    sim = Simulator()
    host = PhysicalHost(sim, "host1")
    thread = host.thread("vread-daemon")
    assert thread.name == "host1.vread-daemon"


def test_mount_image_idempotent():
    sim = Simulator()
    host = PhysicalHost(sim, "host1")
    image = DiskImage("datanode1.img")
    first = host.mount_image(image)
    second = host.mount_image(image)
    assert first is second
    assert first.mount_point == "/mnt/datanode1.img"


def test_unmount_image():
    sim = Simulator()
    host = PhysicalHost(sim, "host1")
    host.mount_image(DiskImage("dn.img"))
    host.unmount_image("dn.img")
    assert host.mounts == {}
    with pytest.raises(KeyError):
        host.unmount_image("dn.img")


def test_drop_caches_empties_host_cache():
    sim = Simulator()
    host = PhysicalHost(sim, "host1")
    host.page_cache.insert("obj", 0, 8192)
    assert host.page_cache.resident_pages > 0
    host.drop_caches()
    assert host.page_cache.resident_pages == 0
