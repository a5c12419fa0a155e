"""Tests for lookbusy, netperf, and the file-read benchmark."""

import pytest

from repro.cluster import VirtualHadoopCluster
from repro.storage.content import PatternSource
from repro.workloads.filereader import FileReadBenchmark
from repro.workloads.lookbusy import Lookbusy
from repro.workloads.netperf import NetperfRR


# ------------------------------------------------------------------ lookbusy
def test_lookbusy_validation(single_host_bed):
    with pytest.raises(ValueError):
        Lookbusy(single_host_bed.vms[0], utilization=0.0)
    with pytest.raises(ValueError):
        Lookbusy(single_host_bed.vms[0], utilization=1.5)
    with pytest.raises(ValueError):
        Lookbusy(single_host_bed.vms[0], period_seconds=0)


def test_lookbusy_stop_terminates(single_host_bed):
    bed = single_host_bed
    hog = Lookbusy(bed.vms[0], utilization=0.5)

    def stopper():
        yield bed.sim.timeout(0.1)
        hog.stop()

    bed.sim.process(stopper())
    bed.sim.run()  # must terminate
    assert hog.stopped


def test_lookbusy_hits_target_utilization(single_host_bed):
    bed = single_host_bed
    hog = Lookbusy(bed.vms[0], utilization=0.6)

    def stopper():
        yield bed.sim.timeout(2.0)
        hog.stop()

    bed.sim.process(stopper())
    bed.sim.run()
    busy = bed.hosts[0].accounting.by_category().get("lookbusy", 0)
    assert busy == pytest.approx(1.2, rel=0.1)


# ------------------------------------------------------------------- netperf
def test_netperf_counts_transactions(single_host_bed):
    bed = single_host_bed
    rr = NetperfRR(bed.network, bed.vms[0], bed.vms[1], request_bytes=32 * 1024)

    def proc():
        rate = yield from rr.run(duration=0.05)
        return rate

    rate = bed.run(bed.sim.process(proc()))
    assert rr.transactions > 0
    assert rate == pytest.approx(rr.transactions / 0.05, rel=0.2)


def test_netperf_rate_drops_under_cpu_contention():
    """The Figure 3 effect: background lookbusy VMs depress TCP_RR rate."""
    def measure(total_vms):
        cluster = VirtualHadoopCluster(block_size=1 << 20,
                                       total_vms_per_host=total_vms)
        rr = NetperfRR(cluster.network, cluster.client_vm,
                       cluster.datanode_vms[0], request_bytes=32 * 1024)

        def proc():
            return (yield from rr.run(duration=0.2))

        rate = cluster.run(cluster.sim.process(proc()))
        cluster.stop_background()
        return rate

    rate_2vms = measure(2)
    rate_4vms = measure(4)
    assert rate_4vms < rate_2vms
    drop = (rate_2vms - rate_4vms) / rate_2vms
    assert 0.05 < drop < 0.60  # paper reports ~20%


def test_netperf_validation(single_host_bed):
    with pytest.raises(ValueError):
        NetperfRR(single_host_bed.network, single_host_bed.vms[0],
                  single_host_bed.vms[1], request_bytes=0)


# ---------------------------------------------------------------- filereader
def test_filereader_local_counts_requests(single_host_bed):
    bed = single_host_bed
    vm = bed.vms[0]
    vm.guest_fs.mkdir("/data")
    vm.guest_fs.create("/data/f", PatternSource(256 * 1024, seed=1))
    bench = FileReadBenchmark(request_bytes=64 * 1024)

    def proc():
        yield from bench.read_local(vm, "/data/f")

    bed.run(bed.sim.process(proc()))
    assert bench.count == 4
    assert bench.mean_delay > 0


def test_filereader_hdfs_vs_local_delay(hadoop_bed):
    """Figure 2's core claim: inter-VM HDFS reads are slower than local."""
    bed = hadoop_bed
    payload = PatternSource(256 * 1024, seed=2)

    def load():
        yield from bed.client.write_file("/f", payload, favored=["dn1"])

    bed.run(bed.sim.process(load()))
    # Local baseline: the same file on the client VM's own disk.
    bed.client_vm.guest_fs.mkdir("/data")
    bed.client_vm.guest_fs.create("/data/f", payload)

    def drop_caches():
        for host in bed.hosts:
            host.drop_caches()
            for vm in host.vms:
                vm.drop_guest_cache()

    local = FileReadBenchmark(request_bytes=64 * 1024)
    hdfs = FileReadBenchmark(request_bytes=64 * 1024)

    def run_local():
        yield from local.read_local(bed.client_vm, "/data/f")

    def run_hdfs():
        yield from hdfs.read_hdfs(bed.client, "/f")

    # Cold-vs-cold, as in Fig 2(a).
    drop_caches()
    bed.run(bed.sim.process(run_local()))
    drop_caches()
    bed.run(bed.sim.process(run_hdfs()))
    assert hdfs.mean_delay > local.mean_delay * 1.5


def test_filereader_validation():
    with pytest.raises(ValueError):
        FileReadBenchmark(request_bytes=0)
