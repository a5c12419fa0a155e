"""End-to-end coverage for the cluster-churn extension experiment."""

import pytest

from repro.experiments import registry
from repro.experiments.scale_churn import ChurnPoint, _measure, assemble


def test_unknown_churn_level_rejected():
    with pytest.raises(ValueError, match="unknown churn level"):
        _measure(False, "tornado", 1 << 20, 0.5)


def test_static_point_never_touches_membership():
    point = _measure(False, "none", 512 << 10, 0.4, seed=3)
    assert isinstance(point, ChurnPoint)
    assert point.reads > 0 and point.mean_ms > 0
    assert point.membership_version == 0
    assert point.degraded_fraction == 0.0
    assert point.reprobes == point.recoveries == 0
    assert point.re_replications == 0


def test_migrate_point_recovers_and_is_deterministic():
    point = _measure(True, "migrate", 512 << 10, 1.0, seed=2)
    assert point.membership_version == 1
    assert point.reads > 0
    # The daemon crash degraded the library; the restart recovered it
    # inside the window via the re-probe loop.
    assert 0.0 < point.degraded_fraction < 1.0
    assert point.reprobes >= 1
    assert point.recoveries >= 1
    assert point.recovery_ms > 0
    assert _measure(True, "migrate", 512 << 10, 1.0, seed=2) == point


def test_assemble_builds_figure():
    def fake(version, degraded=0.0):
        return ChurnPoint(reads=10, mean_ms=1.0, p99_ms=2.0,
                          degraded_fraction=degraded, reprobes=1,
                          recoveries=1, recovery_ms=100.0,
                          re_replications=2,
                          re_replication_bytes=4 << 20, rebalance_moves=1,
                          membership_version=version)

    values = {("vanilla", "none"): fake(0), ("vanilla", "full"): fake(3),
              ("vRead", "none"): fake(0), ("vRead", "full"): fake(3, 0.25)}
    result = assemble(values, churn_levels=("none", "full"),
                      file_bytes=2 << 20, duration=2.0)
    assert result.figure.startswith("Extension")
    assert set(result.series) == {"vanilla p99", "vRead p99",
                                  "vRead degraded %"}
    assert result.series["vRead degraded %"] == [0.0, 25.0]
    assert "membership version 3" in result.notes


def test_registered_in_extension_group():
    spec = registry.get("scale-churn")
    assert spec.group == "extension"
    assert spec.fanout is not None
    quick = spec.params("quick")
    assert quick["churn_levels"] == ("none", "migrate")
    full = spec.params("default")
    assert full["churn_levels"] == ("none", "migrate", "full")


def test_full_churn_point_degrades_recovers_and_repairs():
    point = _measure(True, "full", 1 << 20, 1.5, seed=1)
    # Section 6 end to end: the daemon crash degrades the library, the
    # re-probe loop finds the restarted daemon inside the window...
    assert 0.0 < point.degraded_fraction < 0.8
    assert point.reprobes >= 1
    assert point.recoveries >= 1
    # ...and the decommission drains replicas while the join and the
    # migration each bump the membership version.
    assert point.re_replications >= 1
    assert point.membership_version >= 3
