"""Tests for the fair-share CPU scheduler — the substrate for the paper's
I/O-thread synchronization findings."""

import pytest

from repro.hostmodel.costs import CostModel
from repro.hostmodel.cpu import CpuScheduler
from repro.metrics.accounting import CpuAccounting, OTHERS
from repro.sim import SimulationError, Simulator

ZERO_SWITCH = CostModel().with_overrides(context_switch_cycles=0.0,
                                         wakeup_stacking_delay_seconds=0.0)


def make_sched(cores=1, freq=1e9, costs=ZERO_SWITCH):
    sim = Simulator()
    acct = CpuAccounting()
    sched = CpuScheduler(sim, cores, freq, acct, costs)
    return sim, sched, acct


def test_single_burst_duration_matches_cycles_over_frequency():
    sim, sched, acct = make_sched(freq=2e9)
    thread = sched.thread("t")
    done = []

    def proc():
        yield from thread.run(2e6, "work")  # 2M cycles @ 2GHz = 1ms
        done.append(sim.now)

    sim.process(proc())
    sim.run()
    assert done == [pytest.approx(0.001)]
    assert acct.by_category()["work"] == pytest.approx(0.001)


def test_zero_cycles_is_noop():
    sim, sched, _ = make_sched()

    def proc():
        yield from sched.thread("t").run(0, "work")
        return sim.now

    process = sim.process(proc())
    sim.run()
    assert process.value == 0.0


def test_negative_cycles_rejected():
    sim, sched, _ = make_sched()

    def proc():
        yield from sched.thread("t").run(-1, "work")

    sim.process(proc())
    with pytest.raises(SimulationError):
        sim.run()


def test_two_threads_share_one_core_fairly():
    # Two equal bursts on one core must both finish at ~2x the solo time.
    sim, sched, _ = make_sched(cores=1, freq=1e9)
    finish = {}

    def proc(tag):
        yield from sched.thread(tag).run(5e6, "work")  # 5ms solo
        finish[tag] = sim.now

    sim.process(proc("a"))
    sim.process(proc("b"))
    sim.run()
    assert finish["a"] == pytest.approx(0.010, rel=0.15)
    assert finish["b"] == pytest.approx(0.010, rel=0.01)


def test_two_threads_on_two_cores_run_in_parallel():
    sim, sched, _ = make_sched(cores=2, freq=1e9)
    finish = {}

    def proc(tag):
        yield from sched.thread(tag).run(5e6, "work")
        finish[tag] = sim.now

    sim.process(proc("a"))
    sim.process(proc("b"))
    sim.run()
    assert finish["a"] == pytest.approx(0.005)
    assert finish["b"] == pytest.approx(0.005)


def test_short_burst_waits_behind_busy_cores():
    # One core, a long burst running, a short burst arriving later: the short
    # burst's completion reflects queueing delay (the paper's sync delay).
    sim, sched, _ = make_sched(cores=1, freq=1e9)
    finish = {}

    def long_runner():
        yield from sched.thread("long").run(10e6, "work")  # 10ms
        finish["long"] = sim.now

    def short_runner():
        yield sim.timeout(0.0005)
        yield from sched.thread("short").run(1e5, "work")  # 0.1ms solo
        finish["short"] = sim.now

    sim.process(long_runner())
    sim.process(short_runner())
    sim.run()
    # Without contention the short burst would end at 0.6ms; with the long
    # burst hogging the core it must wait for a slice boundary.
    assert finish["short"] > 0.0009


def test_context_switch_cost_charged_to_others():
    costs = CostModel().with_overrides(context_switch_cycles=1e6)  # 1ms @1GHz
    sim, sched, acct = make_sched(freq=1e9, costs=costs)

    def proc():
        yield from sched.thread("t").run(1e6, "work")

    sim.process(proc())
    sim.run()
    assert acct.by_category()[OTHERS] == pytest.approx(0.001)
    assert sim.now == pytest.approx(0.002)  # switch + work


def test_same_thread_bursts_serialize():
    # Two processes driving the same thread entity must not overlap.
    sim, sched, _ = make_sched(cores=4, freq=1e9)
    thread = sched.thread("vcpu")
    finish = []

    def proc():
        yield from thread.run(1e6, "work")  # 1ms
        finish.append(sim.now)

    sim.process(proc())
    sim.process(proc())
    sim.run()
    assert finish == [pytest.approx(0.001), pytest.approx(0.002)]


def test_different_threads_do_not_serialize():
    sim, sched, _ = make_sched(cores=4, freq=1e9)
    finish = []

    def proc(tag):
        yield from sched.thread(tag).run(1e6, "work")
        finish.append(sim.now)

    sim.process(proc("a"))
    sim.process(proc("b"))
    sim.run()
    assert finish == [pytest.approx(0.001), pytest.approx(0.001)]


def test_scheduler_validation():
    sim = Simulator()
    acct = CpuAccounting()
    with pytest.raises(SimulationError):
        CpuScheduler(sim, 0, 1e9, acct)
    with pytest.raises(SimulationError):
        CpuScheduler(sim, 1, 0, acct)


def test_accounting_total_equals_busy_time_no_contention():
    sim, sched, acct = make_sched(cores=2, freq=1e9)

    def proc(tag, cycles):
        yield from sched.thread(tag).run(cycles, "work")

    sim.process(proc("a", 3e6))
    sim.process(proc("b", 1e6))
    sim.run()
    assert acct.total() == pytest.approx(0.004)


def test_waiting_and_busy_counters():
    sim, sched, _ = make_sched(cores=1, freq=1e9)
    seen = []

    def worker(tag):
        yield from sched.thread(tag).run(5e6, "work")

    def observer():
        yield sim.timeout(0.002)
        seen.append((sched.busy_cores, sched.runnable_waiting))

    sim.process(worker("a"))
    sim.process(worker("b"))
    sim.process(observer())
    sim.run()
    assert seen == [(1, 1)]
