"""Byte-identity pins: the default topology reproduces the PR 3 numbers.

The topology refactor promises that a bare ``VirtualHadoopCluster()`` (the
``paper_fig10()`` spec) is *bit-for-bit* identical to the pre-refactor
builder.  These goldens were captured from the pre-refactor tree at small
dataset sizes; any drift in event ordering, placement, or fabric timing
for the single-rack path shows up here as an exact-string mismatch.
"""

from repro.cluster import VirtualHadoopCluster, paper_fig10
from repro.experiments.dfsio_sweep import run_cell
from repro.experiments.fig02_motivation_delay import run as run_fig02
from repro.experiments.fig09_vread_delay import run as run_fig09
from repro.experiments.runner import canonical_json, jsonable
from repro.hostmodel.frequency import GHZ_2_0
from repro.load import LoadGenerator, default_tenants
from repro.storage.content import PatternSource

FIG02_NO_CACHE = (
    '{"figure":"Fig 2(a)","notes":"file=2MB, quad-core @2.0GHz",'
    '"series":{"inter-VM":[0.43945470000001013,3.794328800000017,'
    '7.289841600000029],"local":[0.26620160000000515,2.6992256000000006,'
    '5.294451200000003]},"title":"Virtual HDFS data access delay without '
    'cache","unit":"ms","x_label":"size of request","x_values":["64KB",'
    '"1MB","4MB"]}')

FIG02_CACHE = (
    '{"figure":"Fig 2(b)","notes":"file=2MB, quad-core @2.0GHz",'
    '"series":{"inter-VM":[0.194721900000007,1.0316040000000202,'
    '1.7893920000000354],"local":[0.021468800000000454,0.1935007999999995,'
    '0.3770015999999994]},"title":"Virtual HDFS data access delay with '
    'cache","unit":"ms","x_label":"size of request","x_values":["64KB",'
    '"1MB","4MB"]}')

FIG09_NO_CACHE = (
    '{"figure":"Fig 9(a)","notes":"file=2MB, co-located read @2.0GHz",'
    '"series":{"vRead-2vms":[0.2923640650000029,2.839347440000004,'
    '5.303550880000004],"vRead-4vms":[0.34432721500000585,'
    '2.9268474400000044,5.429086480000004],"vanilla-2vms":'
    '[0.43945470000001013,3.794328800000017,7.289841600000029],'
    '"vanilla-4vms":[0.5308609500000127,4.006828800000023,'
    '7.639841600000039]},"title":"Data access delay without cache",'
    '"unit":"ms","x_label":"size of request","x_values":["64KB","1MB",'
    '"4MB"]}')

FIG09_CACHE = (
    '{"figure":"Fig 9(b)","notes":"file=2MB, co-located read @2.0GHz",'
    '"series":{"vRead-2vms":[0.09452288750000197,0.6362524000000057,'
    '0.9613608000000086],"vRead-4vms":[0.15444627500000474,'
    '0.6362524000000057,1.0363608000000109],"vanilla-2vms":'
    '[0.194721900000007,1.0316040000000202,1.7893920000000354],'
    '"vanilla-4vms":[0.2611281500000069,1.2598184000000245,'
    '2.113160000000043]},"title":"Data access delay with cache",'
    '"unit":"ms","x_label":"size of request","x_values":["64KB","1MB",'
    '"4MB"]}')

FIG11_CELLS = {
    ("colocated", "vanilla"):
        '{"read_cpu_ms":2.4241088,"read_mbps":272.9747367370954,'
        '"reread_cpu_ms":2.220108800000002,"reread_mbps":977.8588150683862,'
        '"write_mbps":317.39434046846225}',
    ("colocated", "vRead"):
        '{"read_cpu_ms":1.5866836,"read_mbps":364.84114064852423,'
        '"reread_cpu_ms":1.382683599999999,"reread_mbps":1577.4778070901455,'
        '"write_mbps":317.39434046846225}',
    ("remote", "vanilla"):
        '{"read_cpu_ms":2.4241088,"read_mbps":244.72297873003797,'
        '"reread_cpu_ms":2.4241088000000013,"reread_mbps":404.52716612936865,'
        '"write_mbps":282.74708753857095}',
    ("remote", "vRead"):
        '{"read_cpu_ms":1.5866835999999997,"read_mbps":272.7825579495914,'
        '"reread_cpu_ms":1.382683599999999,"reread_mbps":641.2703289671092,'
        '"write_mbps":282.74708753857095}',
}

#: (vread,) -> (t_load, t_end, sha256 of the read-back payload).
DEFAULT_CLUSTER_DIGEST = {
    False: (0.007037635999999998, 0.009158844000000011,
            "fbedda7f44c0184cd55ae1611ce25d169266950165d113d23a538f95d5a2d48a"),
    True: (0.007101635999999998, 0.008382140799999997,
           "fbedda7f44c0184cd55ae1611ce25d169266950165d113d23a538f95d5a2d48a"),
}


#: SloReport.digest() of two quick tenants for 1 s on a 2-client cluster.
LOAD_REPORT_DIGEST = (
    "7a52d3bc7eeb05bb9078826d23071b03afb9fe788b4d4e13a383e07f6b046e9d")


def test_fig02_pins_bit_for_bit():
    result = run_fig02(file_bytes=2 << 20)
    assert canonical_json(jsonable(result.no_cache)) == FIG02_NO_CACHE
    assert canonical_json(jsonable(result.cache)) == FIG02_CACHE


def test_load_generator_report_digest_pin():
    cluster = VirtualHadoopCluster(block_size=1 << 20, vread=True,
                                   topology=paper_fig10(clients=2), seed=0)
    tenants = default_tenants(2, rate=40.0, deadline_seconds=0.02,
                              request_bytes=128 << 10, n_keys=3)
    report = LoadGenerator(tenants, seed=9).run_cluster(cluster,
                                                        duration=1.0)
    assert report.digest() == LOAD_REPORT_DIGEST


def test_fig09_pins_bit_for_bit():
    result = run_fig09(file_bytes=2 << 20)
    assert canonical_json(jsonable(result.no_cache)) == FIG09_NO_CACHE
    assert canonical_json(jsonable(result.cache)) == FIG09_CACHE


def test_fig11_cells_pin_bit_for_bit():
    for (scenario, mode), golden in FIG11_CELLS.items():
        cell = run_cell(scenario, GHZ_2_0, 2, mode, file_bytes=4 << 20,
                        n_files=1)
        assert canonical_json(jsonable(cell)) == golden, (scenario, mode)


def test_default_cluster_timeline_pins_bit_for_bit():
    for vread, (t_load, t_end, checksum) in DEFAULT_CLUSTER_DIGEST.items():
        cluster = VirtualHadoopCluster(vread=vread)
        payload = PatternSource(2 << 20, seed=3)

        def load():
            yield from cluster.write_dataset("/pin/data", payload,
                                             favored=["dn1"])

        cluster.run(cluster.sim.process(load()))
        cluster.settle()
        assert cluster.sim.now == t_load, ("load", vread)

        def read():
            source = yield from cluster.clients.get().read_file("/pin/data")
            return source

        got = cluster.run(cluster.sim.process(read()))
        assert cluster.sim.now == t_end, ("read", vread)
        assert got.checksum() == checksum
