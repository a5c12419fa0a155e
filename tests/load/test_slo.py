"""Tests for the streaming SLO sinks and report."""

import random
import tracemalloc

import pytest

from repro.load.slo import SloReport, TenantSlo
from repro.metrics.sinks import EmptyMetricError


def make_slo(deadline=0.01):
    return TenantSlo("t1", deadline_seconds=deadline)


def test_record_counts_misses_against_deadline():
    slo = make_slo(deadline=0.01)
    slo.note_arrival()
    slo.record(arrival=0.0, completion=0.005)    # hit
    slo.note_arrival()
    slo.record(arrival=0.1, completion=0.2)      # miss (100ms)
    summary = slo.summarize(duration=1.0)
    assert summary.completions == 2
    assert summary.miss_count == 1
    assert summary.arrivals == 2
    assert summary.goodput_rps == pytest.approx(1.0)


def test_violation_time_fraction_counts_windows_with_misses():
    slo = make_slo(deadline=0.01)
    # Two misses in the same window, one in another: 2 of 4 windows bad.
    for arrival, completion in ((0.0, 0.1), (0.2, 0.3), (1.6, 1.8)):
        slo.note_arrival()
        slo.record(arrival, completion)
    # And plenty of hits spread around.
    for start in (0.6, 1.1, 1.9):
        slo.note_arrival()
        slo.record(start, start + 0.001)
    summary = slo.summarize(duration=2.0)
    assert summary.violation_time_fraction == pytest.approx(2 / 4)


def test_violation_time_fraction_never_exceeds_one():
    # Requests outstanding at the end of the run drain past ``duration``;
    # a miss completing then marks the last measured window, not a new one.
    slo = make_slo(deadline=0.01)
    for arrival, completion in ((0.0, 0.1), (0.5, 0.6), (1.0, 1.2)):
        slo.note_arrival()
        slo.record(arrival, completion)
    summary = slo.summarize(duration=1.0)
    assert summary.miss_count == 3
    assert summary.violation_time_fraction == pytest.approx(1.0)


def test_quantiles_are_sketch_backed():
    slo = make_slo(deadline=1.0)
    for index in range(1, 101):
        slo.note_arrival()
        slo.record(0.0, index * 1e-3)   # latencies 1ms..100ms
    summary = slo.summarize(duration=1.0)
    bound = 10 ** (1 / 200) - 1   # half a bucket at 100 bins per decade
    assert summary.p50_ms == pytest.approx(50.0, rel=bound)
    assert summary.p99_ms == pytest.approx(99.0, rel=bound)
    assert summary.p99_9_ms == pytest.approx(100.0, rel=bound)
    assert summary.max_ms == pytest.approx(100.0)
    assert summary.mean_ms == pytest.approx(50.5)


def test_empty_slo_raises_contract_error():
    with pytest.raises(EmptyMetricError, match="no samples recorded"):
        make_slo().summarize(duration=1.0)
    with pytest.raises(EmptyMetricError):
        SloReport.from_tenants("empty", {}, duration=1.0)


def test_report_accessors_and_digest_stability():
    def build():
        slos = {}
        for name, latency in (("a", 0.002), ("b", 0.050)):
            slo = TenantSlo(name, deadline_seconds=0.01)
            for index in range(10):
                slo.note_arrival()
                slo.record(index * 0.1, index * 0.1 + latency)
            slos[name] = slo
        return SloReport.from_tenants("run", slos, duration=1.0)

    report = build()
    assert set(report.tenants) == {"a", "b"}
    assert report.tenant("b").miss_count == 10
    assert report.worst_p99_ms() == pytest.approx(50.0, rel=0.05)
    assert report.total_goodput_rps() == pytest.approx(10.0)  # b all misses
    assert report.violation_time_fraction() == pytest.approx(0.5)
    assert report.digest() == build().digest()
    with pytest.raises(KeyError, match="no tenant"):
        report.tenant("zz")


def test_report_render_mentions_every_tenant():
    slo = make_slo()
    slo.note_arrival()
    slo.record(0.0, 0.001)
    report = SloReport.from_tenants("smoke", {"t1": slo}, duration=1.0,
                                    notes="hello")
    text = report.render()
    assert "t1" in text
    assert "p99" in text
    assert "hello" in text


def test_slo_memory_is_bounded_by_the_sinks_not_the_samples():
    def peak_bytes(samples):
        rate = 10_000.0
        rng = random.Random(1)
        tracemalloc.start()
        try:
            slo = TenantSlo("t1", deadline_seconds=0.005)
            for index in range(samples):
                arrival = index / rate
                slo.note_arrival()
                slo.record(arrival, arrival + rng.expovariate(250.0))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # Retaining anything per sample (even one 8-byte slot) would cost
    # more than 4 bytes for each of the extra 90,000 samples.
    assert peak_bytes(100_000) - peak_bytes(10_000) < 4 * 90_000
