"""End-to-end coverage for the multi-rack scale-out experiment."""

from repro.experiments import registry
from repro.experiments.scale_racks import RackPoint, _measure, assemble


def test_measure_two_racks_end_to_end():
    point = _measure(True, 2, 1 << 20)
    assert isinstance(point, RackPoint)
    assert point.aggregate_mbps > 0
    assert set(point.per_rack_mbps) == {"rack1", "rack2"}
    assert set(point.per_host_mbps) == {"host1", "host2", "host3", "host4"}
    assert all(v > 0 for v in point.per_rack_mbps.values())
    # Rack-aware placement put replica 2 on the remote rack.
    assert point.cross_rack_blocks > 0
    assert point.aggregate_mbps == sum(point.per_rack_mbps.values())


def test_single_rack_has_no_cross_rack_blocks():
    point = _measure(False, 1, 1 << 20)
    assert set(point.per_rack_mbps) == {"rack1"}
    assert point.cross_rack_blocks == 0


def test_vread_beats_vanilla_within_a_rack():
    vanilla = _measure(False, 1, 1 << 20)
    vread = _measure(True, 1, 1 << 20)
    assert vread.aggregate_mbps > vanilla.aggregate_mbps


def test_assemble_builds_figure():
    points = {}
    for mode in ("vanilla", "vRead"):
        for n_racks in (1, 2):
            points[(mode, n_racks)] = _measure(mode == "vRead", n_racks,
                                               1 << 20)
    result = assemble(points, rack_counts=(1, 2), file_bytes=1 << 20)
    assert result.figure.startswith("Extension")
    assert set(result.series) == {"vanilla", "vRead"}
    assert len(result.series["vRead"]) == 2
    assert "rack" in result.notes


def test_registry_exposes_scale_racks():
    spec = registry.get("scale-racks")
    assert spec.fanout is not None
    params = spec.params("quick")
    assert params["rack_counts"] == (1, 2)
    points = spec.fanout.points(**params)
    assert ("vanilla", 1) in points and ("vRead", 2) in points
