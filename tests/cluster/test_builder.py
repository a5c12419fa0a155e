"""Tests for the cluster builder: topology, vRead wiring, lookbusy."""

import pytest

from repro.cluster import ClusterConfig, VirtualHadoopCluster, paper_fig10
from repro.core.integration import VReadDfsClient
from repro.hdfs import DfsClient
from repro.hostmodel.frequency import GHZ_1_6, GHZ_3_2
from repro.storage.content import PatternSource


def test_default_topology_matches_figure_10():
    cluster = VirtualHadoopCluster(block_size=1 << 20)
    assert len(cluster.hosts) == 2
    assert cluster.client_vm.host is cluster.hosts[0]
    assert cluster.datanode_vms[0].host is cluster.hosts[0]  # co-located
    assert cluster.datanode_vms[1].host is cluster.hosts[1]  # remote
    assert cluster.namenode.vm is cluster.client_vm
    assert cluster.lookbusy == []  # 2 VMs per host: no background load


def test_four_vm_scenario_adds_lookbusy():
    cluster = VirtualHadoopCluster(block_size=1 << 20, total_vms_per_host=4)
    # host1 has client+dn1 => 2 hogs; host2 has dn2 => 3 hogs.
    assert len(cluster.lookbusy) == 5
    host1_vms = [vm.name for vm in cluster.hosts[0].vms]
    host2_vms = [vm.name for vm in cluster.hosts[1].vms]
    assert len(host1_vms) == 4 and len(host2_vms) == 4
    cluster.stop_background()


def test_vanilla_vs_vread_client_types():
    vanilla = VirtualHadoopCluster(block_size=1 << 20)
    assert isinstance(vanilla.clients.get(), DfsClient)
    assert not isinstance(vanilla.clients.get(), VReadDfsClient)
    enabled = VirtualHadoopCluster(block_size=1 << 20, vread=True)
    assert isinstance(enabled.clients.get(), VReadDfsClient)
    assert enabled.vread_manager is not None


def test_clients_facade_modes():
    enabled = VirtualHadoopCluster(block_size=1 << 20, vread=True)
    assert isinstance(enabled.clients.get(mode="vread"), VReadDfsClient)
    vanilla = enabled.clients.get(mode="vanilla")
    assert isinstance(vanilla, DfsClient)
    assert not isinstance(vanilla, VReadDfsClient)
    with pytest.raises(ValueError, match="unknown client mode"):
        enabled.clients.get(mode="turbo")
    plain = VirtualHadoopCluster(block_size=1 << 20)
    with pytest.raises(ValueError, match="vread=True"):
        plain.clients.get(mode="vread")


def test_clients_facade_per_vm():
    cluster = VirtualHadoopCluster(block_size=1 << 20,
                                   topology=paper_fig10(clients=2))
    vm2 = cluster.client_vms[1]
    assert vm2.name == "client2"
    client2 = cluster.clients.get(vm=vm2)
    assert client2.vm is vm2
    # Same VM, same vanilla client (cached, so blacklists persist).
    assert cluster.clients.get(vm=vm2) is client2
    assert cluster.clients.get() is cluster.clients.get(mode="vanilla")


def test_deprecated_client_aliases_removed():
    # The clients facade and the membership controller are the only ways
    # in; the old alias trio is gone.
    cluster = VirtualHadoopCluster(block_size=1 << 20)
    for alias in ("client", "vanilla_client", "client_for"):
        assert not hasattr(cluster, alias)


def test_config_validation():
    with pytest.raises(ValueError):
        ClusterConfig(n_hosts=1)
    with pytest.raises(ValueError):
        ClusterConfig(total_vms_per_host=1)
    with pytest.raises(ValueError):
        VirtualHadoopCluster(ClusterConfig(), block_size=1)


def test_from_kwargs_rejects_unknown_keys_helpfully():
    with pytest.raises(TypeError) as excinfo:
        ClusterConfig.from_kwargs(block_sized=1 << 20)
    message = str(excinfo.value)
    assert "block_sized" in message
    assert "block_size" in message  # the did-you-mean suggestion
    with pytest.raises(TypeError, match="valid options are"):
        VirtualHadoopCluster(utterly_bogus=True)


def test_set_frequency_applies_to_all_hosts():
    cluster = VirtualHadoopCluster(block_size=1 << 20, frequency_hz=GHZ_3_2)
    assert all(host.frequency_hz == GHZ_3_2 for host in cluster.hosts)
    cluster.set_frequency(GHZ_1_6)
    assert all(host.frequency_hz == GHZ_1_6 for host in cluster.hosts)


def test_write_dataset_and_read_through_cluster_client():
    cluster = VirtualHadoopCluster(block_size=1 << 20, vread=True)
    payload = PatternSource(512 * 1024, seed=1)

    def load():
        yield from cluster.write_dataset("/data", payload, favored=["dn1"])

    cluster.run(cluster.sim.process(load()))
    cluster.settle()

    def read():
        source = yield from cluster.clients.get().read_file("/data")
        return source

    got = cluster.run(cluster.sim.process(read()))
    assert got.checksum() == payload.checksum()


def test_drop_all_caches():
    cluster = VirtualHadoopCluster(block_size=1 << 20)
    payload = PatternSource(128 * 1024, seed=2)

    def load():
        yield from cluster.write_dataset("/data", payload)

    cluster.run(cluster.sim.process(load()))
    assert cluster.hosts[0].page_cache.resident_pages > 0
    cluster.drop_all_caches()
    assert all(h.page_cache.resident_pages == 0 for h in cluster.hosts)
    assert all(vm.guest_cache.resident_pages == 0
               for h in cluster.hosts for vm in h.vms)


def test_lookbusy_consumes_target_utilization():
    cluster = VirtualHadoopCluster(block_size=1 << 20, total_vms_per_host=4)
    host = cluster.hosts[0]
    mark = host.accounting.snapshot()

    def wait():
        yield cluster.sim.timeout(1.0)

    cluster.run(cluster.sim.process(wait()))
    cluster.stop_background()
    window = host.accounting.since(mark)
    hog_busy = window.by_category().get("lookbusy", 0.0)
    # Two hogs at 85% on host1 for 1 second ~ 1.7 CPU-seconds.
    assert hog_busy == pytest.approx(1.7, rel=0.1)
