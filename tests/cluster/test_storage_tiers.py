"""Integration tests: tiered storage through the whole stack.

Covers the ``storage=`` config/topology plumbing, tier-aware hot
placement, and per-tier fault targeting.
"""

import pytest

from repro.cluster import (
    HostSpec,
    TopologyError,
    VirtualHadoopCluster,
    paper_fig10,
    rack_cluster,
)
from repro.faults.plan import DiskLatencySpike, DiskOutage, _find_devices
from repro.storage.content import PatternSource
from repro.storage.device import NVME_PROFILE


def mixed_tier_cluster(**overrides):
    """client + dn1 on an HDD host (rack1), dn2 on an NVMe host (rack2)."""
    topology = rack_cluster(n_racks=2, hosts_per_rack=1,
                            storage=("hdd", "nvme"))
    return VirtualHadoopCluster(topology=topology, **overrides)


# ------------------------------------------------------------------ config
def test_cluster_storage_default_reaches_every_host():
    cluster = VirtualHadoopCluster(storage="nvme")
    assert all(host.storage.profile is NVME_PROFILE
               for host in cluster.hosts)
    assert cluster.hosts[0].storage.name == f"{cluster.hosts[0].name}.nvme"


def test_cluster_storage_typo_is_diagnosed():
    with pytest.raises(KeyError, match="did you mean 'nvme'"):
        VirtualHadoopCluster(storage="nvmee")


def test_default_cluster_keeps_legacy_ssd_name():
    cluster = VirtualHadoopCluster()
    host = cluster.hosts[0]
    assert host.storage.profile.tier == "ssd"
    assert host.storage.name == f"{host.name}.ssd"
    assert host.ssd is host.storage  # legacy alias
    assert host.storage_tier == "ssd"


# ---------------------------------------------------------------- topology
def test_host_spec_storage_overrides_cluster_default():
    topology = paper_fig10()
    topology.racks[0].hosts[1].storage = "nvme"
    cluster = VirtualHadoopCluster(topology=topology, storage="hdd")
    by_name = {host.name: host.storage.profile.tier
               for host in cluster.hosts}
    assert sorted(by_name.values()) == ["hdd", "nvme"]


def test_topology_tiers_query_and_validation():
    topology = rack_cluster(n_racks=2, hosts_per_rack=1,
                            storage=("nvme", "hdd"))
    assert topology.tiers() == ["hdd", "nvme"]
    assert paper_fig10().tiers() == []
    with pytest.raises(TopologyError, match="did you mean"):
        rack_cluster(n_racks=2, hosts_per_rack=1, storage=("sdd", "hdd"))
    with pytest.raises(TopologyError, match="per rack"):
        rack_cluster(n_racks=2, hosts_per_rack=1, storage=("hdd",))


def test_topology_describe_shows_tiers():
    topology = rack_cluster(n_racks=2, hosts_per_rack=1,
                            storage=("hdd", "nvme"))
    text = topology.describe()
    assert "<hdd>" in text and "<nvme>" in text


def test_host_spec_storage_validation_names_the_host():
    topology = paper_fig10()
    topology.racks[0].hosts[0].storage = "floppy"
    with pytest.raises(TopologyError, match=topology.racks[0].hosts[0].name):
        topology.validate()


# --------------------------------------------------------------- placement
def test_hot_file_lands_on_fast_tier():
    cluster = mixed_tier_cluster()
    client = cluster.clients.get(mode="vanilla")

    def load():
        yield from client.write_file("/cold", PatternSource(1 << 16, seed=1),
                                     replication=1)
        yield from client.write_file("/hot", PatternSource(1 << 16, seed=2),
                                     replication=1, hot=True)

    cluster.run(cluster.sim.process(load()))
    # Cold data keeps the co-located preference (dn1, the HDD host); hot
    # data skips it for the NVMe host's datanode.
    assert cluster.namenode.get_blocks("/cold")[0].locations == ["dn1"]
    assert cluster.namenode.get_blocks("/hot")[0].locations == ["dn2"]


def test_hot_is_a_no_op_on_homogeneous_clusters():
    for storage in (None, "hdd"):
        cluster = VirtualHadoopCluster(storage=storage)
        client = cluster.clients.get(mode="vanilla")

        def load():
            yield from client.write_file(
                "/a", PatternSource(1 << 16, seed=3), replication=1)
            yield from client.write_file(
                "/b", PatternSource(1 << 16, seed=3), replication=1,
                hot=True)

        cluster.run(cluster.sim.process(load()))
        assert (cluster.namenode.get_blocks("/a")[0].locations
                == cluster.namenode.get_blocks("/b")[0].locations)


def test_hot_replication_spills_to_slow_tier_after_fast():
    cluster = mixed_tier_cluster()
    client = cluster.clients.get(mode="vanilla")

    def load():
        yield from client.write_file("/hot2", PatternSource(1 << 16, seed=4),
                                     replication=2, hot=True)

    cluster.run(cluster.sim.process(load()))
    locations = cluster.namenode.get_blocks("/hot2")[0].locations
    assert locations[0] == "dn2"  # fast tier first
    assert sorted(locations) == ["dn1", "dn2"]


def test_write_dataset_hot_passthrough_counts_placement():
    cluster = mixed_tier_cluster()

    def load():
        yield from cluster.write_dataset(
            "/ds", PatternSource(1 << 16, seed=5), hot=True)

    cluster.run(cluster.sim.process(load()))
    assert cluster.namenode.file("/ds").hot
    assert cluster.fault_counters.get("placement.hot") >= 1


# ------------------------------------------------------------------ faults
def test_tier_fault_targets_every_matching_device():
    cluster = mixed_tier_cluster()
    hdd_devices = _find_devices(cluster, None, "hdd")
    assert [d.profile.tier for d in hdd_devices] == ["hdd"]

    def storm():
        yield from DiskLatencySpike(tier="hdd", factor=8.0,
                                    duration=0.01).inject(cluster, None)

    process = cluster.sim.process(storm())
    # Mid-hold: the spike is applied to every HDD device and nothing else.
    cluster.sim.run(until=cluster.sim.now + 0.005)
    assert all(d.latency_factor == 8.0 for d in hdd_devices)
    assert all(h.storage.latency_factor == 1.0
               for h in cluster.hosts if h.storage.profile.tier != "hdd")
    cluster.run(process)
    assert all(d.latency_factor == 1.0 for d in hdd_devices)


def test_tier_fault_on_absent_tier_lists_available_tiers():
    cluster = VirtualHadoopCluster()  # all-SSD
    with pytest.raises(ValueError, match="'ssd'"):
        _find_devices(cluster, None, "hdd")
    with pytest.raises(ValueError, match="not both"):
        _find_devices(cluster, cluster.hosts[0].name, "hdd")


def test_disk_outage_describe_mentions_tier():
    assert "tier:nvme" in DiskOutage(tier="nvme").describe()
    assert "tier:hdd" in DiskLatencySpike(tier="hdd").describe()
