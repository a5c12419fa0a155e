"""Tests for experiment infrastructure: results, views, breakdown windows."""

import pytest

from repro.cluster import VirtualHadoopCluster
from repro.experiments.common import (
    BreakdownResult,
    BreakdownViews,
    FigureResult,
    client_view,
    daemon_view,
    datanode_view,
    load_dataset,
    pct_improvement,
)
from repro.metrics.accounting import CLIENT_APPLICATION, UtilizationBreakdown
from repro.storage.content import PatternSource


def test_figure_result_value_and_render():
    figure = FigureResult("Fig X", "demo", "size", ["a", "b"],
                          {"s1": [1.0, 2.0], "s2": [3.0, 4.0]}, unit="ms",
                          notes="hello")
    assert figure.value("s1", "b") == 2.0
    text = figure.render()
    assert "Fig X" in text and "s1 (ms)" in text and "hello" in text
    with pytest.raises(ValueError):
        figure.value("s1", "missing")


def test_figure_result_value_errors_name_whats_available():
    figure = FigureResult("Fig X", "demo", "size", ["a", "b"],
                          {"s1": [1.0, 2.0], "s2": [3.0, 4.0]})
    with pytest.raises(KeyError, match=r"available series.*s1.*s2"):
        figure.value("s3", "a")
    with pytest.raises(ValueError, match=r"available size values.*a.*b"):
        figure.value("s1", "c")


def test_breakdown_result_render_orders_categories():
    breakdown = UtilizationBreakdown({CLIENT_APPLICATION: 0.5}, 1.0, 1)
    result = BreakdownResult("Fig Y", "demo", {"vRead": breakdown})
    text = result.render()
    assert "client-application" in text
    assert "50.0%" in text


def test_breakdown_views_requires_mark():
    cluster = VirtualHadoopCluster(block_size=1 << 20)
    views = BreakdownViews(cluster)
    with pytest.raises(RuntimeError):
        views.collect({"all": []})


def test_breakdown_views_measures_window():
    cluster = VirtualHadoopCluster(block_size=1 << 20)
    load_dataset(cluster, "/f", PatternSource(256 * 1024, seed=1),
                 favored=["dn1"])
    views = BreakdownViews(cluster)
    views.mark()

    def read():
        yield from cluster.clients.get().read_file("/f")

    cluster.run(cluster.sim.process(read()))
    collected = views.collect({"client": client_view(cluster),
                               "datanode": datanode_view(cluster, 0)})
    assert collected["client"].total > 0
    assert collected["datanode"].total > 0


def test_view_thread_name_lists():
    cluster = VirtualHadoopCluster(block_size=1 << 20, vread=True)
    names = client_view(cluster)
    assert "client.vcpu" in names and "client.vhost-net" in names
    dn = datanode_view(cluster, 1)
    assert "datanode2.vcpu" in dn
    daemons_all = daemon_view(cluster)
    daemons_h1 = daemon_view(cluster, host_index=0)
    assert "host1.vread-hostd" in daemons_h1
    assert all(name.startswith("host1.") for name in daemons_h1)
    assert set(daemons_h1) < set(daemons_all)


def test_pct_improvement():
    assert pct_improvement(100.0, 150.0) == pytest.approx(50.0)


def test_pct_improvement_rejects_zero_baseline():
    with pytest.raises(ValueError, match="near zero"):
        pct_improvement(0.0, 10.0)
    with pytest.raises(ValueError, match="near zero"):
        pct_improvement(1e-15, 10.0)
