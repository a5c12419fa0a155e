"""End-to-end tests for the profiling harness (``python -m repro profile``)."""

import json

import pytest

from repro.perf.profiler import ProfileReport, profile_experiment, write_json


@pytest.fixture(scope="module")
def fig03_report():
    # One real profiled run shared across the module: cProfile makes the
    # quick fig03 sweep a second or two, no need to repeat it per test.
    return profile_experiment("fig03", profile="quick", top=5)


def test_profile_runs_experiment_end_to_end(fig03_report):
    report = fig03_report
    assert report.experiment == "fig03"
    assert report.profile == "quick"
    assert report.wall_seconds > 0
    assert report.kernel["events_processed"] > 0
    assert report.kernel["simulators"] >= 1
    assert report.events_per_second > 0
    assert 0.0 <= report.cancelled_ratio < 1.0


def test_top_functions_shortened_and_bounded(fig03_report):
    top = fig03_report.top_functions
    assert 0 < len(top) <= 5
    for where, calls, tottime, cumtime in top:
        assert calls > 0
        assert cumtime >= 0
        # Repo paths are shortened to repro/...; builtins keep their name.
        assert not where.startswith("/") or "repro/" not in where


def test_render_mentions_kernel_counters(fig03_report):
    text = fig03_report.render()
    assert "events processed" in text
    assert "heap high-water" in text
    assert "hottest functions" in text


def test_json_roundtrip(fig03_report, tmp_path):
    out = tmp_path / "prof.json"
    write_json(fig03_report, str(out))
    data = json.loads(out.read_text())
    assert data["experiment"] == "fig03"
    assert data["kernel"]["events_processed"] \
        == fig03_report.kernel["events_processed"]
    assert len(data["top_functions"]) == len(fig03_report.top_functions)


def test_kernel_breakdown_reports_fast_path_counters(fig03_report):
    # The heap's fast-path counters are part of every report: the JSON
    # carries them and render() prints one line for each.
    kernel = fig03_report.kernel
    assert kernel["events_processed"] > 0
    assert kernel["heap_high_water"] > 0
    assert kernel["cancelled_discarded"] >= 0
    assert "compactions" not in kernel
    text = fig03_report.render()
    assert "cancelled dropped" in text
    assert "compactions" not in text
    assert "wheel" not in text
    assert "epoch" not in text


def test_memory_mode_reports_traced_heap():
    report = profile_experiment("fig03", profile="quick", top=3, memory=True)
    assert report.peak_traced_mb is not None
    assert report.peak_traced_mb > 0
    assert report.trace_top  # at least one allocation site
    assert "peak traced heap" in report.render()


def test_events_per_second_zero_wall_guard():
    report = ProfileReport(experiment="x", profile="quick",
                           wall_seconds=0.0, kernel={})
    assert report.events_per_second == 0.0
    assert report.cancelled_ratio == 0.0
