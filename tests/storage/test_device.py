"""Tests for the pluggable storage-device API (profiles, tiers, seeks)."""

import pytest

from repro.hostmodel.costs import CostModel
from repro.sim import Simulator
from repro.storage.device import (
    DEVICE_PROFILES,
    HDD_PROFILE,
    NVME_PROFILE,
    SSD_PROFILE,
    DeviceProfile,
    DiskError,
    make_device,
    resolve_profile,
)


def run_device(device, requests):
    """Drive ``device.read`` calls serially; returns the final sim time."""
    sim = device.sim

    def proc():
        for nbytes, offset in requests:
            yield from device.read(nbytes, offset=offset)
        return sim.now

    process = sim.process(proc())
    sim.run()
    return process.value


# --------------------------------------------------------------- profiles
def test_profile_validation():
    with pytest.raises(ValueError):
        DeviceProfile(tier="")
    with pytest.raises(ValueError):
        DeviceProfile(tier="x", seek_latency=-1.0)
    with pytest.raises(ValueError):
        DeviceProfile(tier="x", request_latency=-1e-6)
    with pytest.raises(ValueError):
        DeviceProfile(tier="x", bandwidth_bytes_per_sec=0.0)
    with pytest.raises(ValueError):
        DeviceProfile(tier="x", queue_depth=0)


def test_resolve_profile_vocabulary():
    assert resolve_profile(None) is SSD_PROFILE
    assert resolve_profile("hdd") is HDD_PROFILE
    assert resolve_profile(NVME_PROFILE) is NVME_PROFILE
    with pytest.raises(TypeError):
        resolve_profile(42)


def test_resolve_profile_did_you_mean():
    with pytest.raises(KeyError) as err:
        resolve_profile("nvmee")
    assert "did you mean 'nvme'" in str(err.value)
    assert all(name in str(err.value) for name in DEVICE_PROFILES)


def test_builtin_tier_ranks_order_slow_to_fast():
    assert HDD_PROFILE.rank < SSD_PROFILE.rank < NVME_PROFILE.rank


# ------------------------------------------------------------ service time
def test_ssd_matches_cost_model_byte_identically():
    # The default profile must reproduce the pre-profile SSD device timing
    # exactly (0.0 seek + cost-model constants), or the golden timelines
    # and fig09/fig11 pins would drift.
    sim = Simulator()
    costs = CostModel()
    device = make_device(sim, "ssd", costs=costs)
    nbytes = 1 << 20
    elapsed = run_device(device, [(nbytes, None)])
    assert elapsed == (costs.ssd_request_latency
                       + nbytes / costs.ssd_bandwidth_bytes_per_sec)
    assert device.seeks == 0


def test_ssd_profile_inherits_cost_model_overrides():
    # Sensitivity sweeps perturb the CostModel; the None-valued profile
    # fields must pick the perturbed constants up.
    base = CostModel()
    costs = base.with_overrides(
        ssd_bandwidth_bytes_per_sec=base.ssd_bandwidth_bytes_per_sec * 2)
    device = make_device(Simulator(), "ssd", costs=costs)
    assert device.bandwidth_bytes_per_sec == costs.ssd_bandwidth_bytes_per_sec


def test_hdd_charges_seek_on_non_sequential_offset():
    sim = Simulator()
    device = make_device(sim, "hdd")
    per_byte = 1.0 / device.bandwidth_bytes_per_sec
    base = device.request_latency
    # First positioned request seeks (head position unknown), the
    # sequential continuation does not, the backward jump seeks again.
    elapsed = run_device(device, [(4096, 0), (4096, 4096), (4096, 0)])
    assert device.seeks == 2
    assert elapsed == pytest.approx(
        2 * HDD_PROFILE.seek_latency + 3 * (base + 4096 * per_byte))


def test_offset_free_requests_never_seek():
    # The legacy call shape (no offset) is a sequential continuation —
    # this is what keeps existing SSD call sites byte-identical.
    device = make_device(Simulator(), "hdd")
    run_device(device, [(4096, None), (4096, None)])
    assert device.seeks == 0


def test_offset_free_request_advances_head():
    device = make_device(Simulator(), "hdd")
    # Positioned read establishes the head; the offset-free read advances
    # it; a positioned read at the advanced head is sequential.
    run_device(device, [(100, 0), (50, None), (25, 150)])
    assert device.seeks == 1  # only the initial positioning


def test_nvme_queue_depth_services_in_parallel():
    sim = Simulator()
    device = make_device(sim, "nvme")
    assert NVME_PROFILE.queue_depth > 1
    finish = []

    def proc():
        yield from device.read(1 << 20)
        finish.append(sim.now)

    for _ in range(NVME_PROFILE.queue_depth):
        sim.process(proc())
    sim.run()
    single = (device.request_latency
              + (1 << 20) / device.bandwidth_bytes_per_sec)
    # All queue_depth requests fit in service slots at once.
    assert finish == pytest.approx([single] * NVME_PROFILE.queue_depth)


def test_single_queue_device_serializes():
    sim = Simulator()
    device = make_device(sim, "ssd")
    finish = []

    def proc():
        yield from device.read(1 << 20)
        finish.append(sim.now)

    sim.process(proc())
    sim.process(proc())
    sim.run()
    single = (device.request_latency
              + (1 << 20) / device.bandwidth_bytes_per_sec)
    assert finish == pytest.approx([single, 2 * single])


# ------------------------------------------------------------- fault knobs
def test_latency_factor_scales_service_time():
    sim = Simulator()
    device = make_device(sim, "nvme")
    baseline = (device.request_latency
                + 4096 / device.bandwidth_bytes_per_sec)
    device.set_latency_factor(10.0)
    elapsed = run_device(device, [(4096, None)])
    assert elapsed == pytest.approx(10.0 * baseline)
    with pytest.raises(ValueError):
        device.set_latency_factor(0.0)


def test_failing_device_raises_disk_error():
    sim = Simulator()
    device = make_device(sim, "hdd")
    device.set_failing(True)

    def proc():
        yield from device.read(4096)

    sim.process(proc())
    with pytest.raises(DiskError):
        sim.run()
    assert device.io_errors == 1
    device.set_failing(False)
    run_device(device, [(4096, 0)])
    assert device.bytes_read == 4096


# ----------------------------------------------------------- compatibility
def test_make_device_default_is_ssd():
    device = make_device(Simulator())
    assert device.profile is SSD_PROFILE
    assert device.name == "ssd"
