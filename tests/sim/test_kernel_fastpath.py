"""Kernel fast paths: absolute timers, cancelled timers, occupancy stats.

Covers ``schedule_at`` / ``AbsoluteTimeout`` exactness, the withdrawal of
cancelled timers, the process-wide kernel counters behind ``python -m repro
profile``, slotted event classes, and the bounded-``run`` quiescence
regression (a bounded run that outlives every event must still report
leaked waiters in sanitize mode).
"""

import pytest

from repro.sim import Event, Lock, SanitizerError, SimulationError, Simulator
from repro.sim.events import AbsoluteTimeout, Timeout
from repro.sim.kernel import kernel_stats, reset_kernel_stats
from repro.sim.process import Process


# ----------------------------------------------------------- absolute timers
def test_schedule_at_lands_exactly():
    sim = Simulator()
    sim.timeout(0.3)
    sim.run()
    # 0.3 + (0.7 - 0.3) != 0.7 in floats; schedule_at must not round-trip.
    event = sim.event()
    event._ok = True
    event._value = None
    sim.schedule_at(0.7, event)
    sim.run()
    assert sim.now == 0.7


def test_schedule_at_past_raises():
    sim = Simulator()
    sim.timeout(1.0)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, sim.event())


def test_absolute_timeout_fires_at_absolute_time():
    sim = Simulator()
    sim.timeout(0.25)
    sim.run()
    fired = []
    timer = AbsoluteTimeout(sim, 0.75)
    timer.callbacks.append(lambda event: fired.append(sim.now))
    sim.run()
    assert fired == [0.75]


def test_absolute_timeout_in_past_raises():
    sim = Simulator()
    sim.timeout(1.0)
    sim.run()
    with pytest.raises(SimulationError):
        AbsoluteTimeout(sim, 0.25)


def test_absolute_timeout_cancel_is_silent():
    sim = Simulator()
    timer = AbsoluteTimeout(sim, 5.0)
    timer.callbacks.append(lambda event: pytest.fail("cancelled timer fired"))
    timer.cancel()
    sim.run()
    assert sim.now == 0.0  # discarded, clock never advanced to it


# ------------------------------------------------------- cancelled timers
def test_peek_skips_cancelled_head():
    sim = Simulator()
    doomed = sim.timeout(1.0)
    sim.timeout(2.0)
    doomed.cancel()
    assert sim.peek() == 2.0


def test_cancelled_timers_discarded_not_fired():
    sim = Simulator()
    fired = []
    doomed = sim.timeout(1.0)
    doomed.callbacks.append(lambda event: fired.append("doomed"))
    keeper = sim.timeout(2.0)
    keeper.callbacks.append(lambda event: fired.append("keeper"))
    doomed.cancel()
    sim.run()
    assert fired == ["keeper"]
    assert sim.cancelled_discarded == 1


# ------------------------------------------------------------ kernel counters
def test_kernel_stats_reset_and_accumulate():
    reset_kernel_stats()
    sim = Simulator()

    def ticker():
        for _ in range(10):
            yield sim.timeout(0.1)

    sim.run_until_complete(sim.process(ticker()))
    stats = kernel_stats()
    assert stats["simulators"] == 1
    assert stats["events_processed"] >= 10
    assert stats["events_scheduled"] >= stats["events_processed"]
    reset_kernel_stats()
    assert kernel_stats()["events_processed"] == 0


def test_per_simulator_counters():
    sim = Simulator()
    for i in range(5):
        sim.timeout(float(i))
    sim.run()
    assert sim.events_processed == 5


def test_heap_high_water_sampled():
    reset_kernel_stats()
    sim = Simulator()
    # > 256 concurrent timers so at least one 256-event sample observes a
    # big heap (high-water is a sampled lower bound, not an exact max).
    for i in range(600):
        sim.timeout(1.0 + i * 1e-6)

    sim.run()
    assert sim.heap_high_water > 0
    assert kernel_stats()["heap_high_water"] == sim.heap_high_water


# ------------------------------------------------------------- slotted events
@pytest.mark.parametrize("instance", [
    lambda sim: Event(sim),
    lambda sim: Timeout(sim, 1.0),
    lambda sim: AbsoluteTimeout(sim, 1.0),
    lambda sim: Process(sim, (x for x in ())),
])
def test_kernel_objects_are_slotted(instance):
    obj = instance(Simulator())
    with pytest.raises(AttributeError):
        obj.arbitrary_new_attribute = 1


# ------------------------------------------------- bounded-run quiescence fix
def _leaky_waiter(sim):
    lock = Lock(sim)

    def holder_forever():
        token = lock._resource.request()
        yield token
        yield sim.timeout(1.0)
        # never releases: the waiter below is deadlocked from here on

    def waiter():
        yield sim.timeout(0.5)
        yield lock._resource.request()

    sim.process(holder_forever())
    sim.process(waiter())


def test_bounded_run_past_drained_heap_checks_quiescence():
    sim = Simulator(sanitize=True)
    _leaky_waiter(sim)
    # The heap drains at t=1.0; the bounded run outlives it.  Before PR 5
    # this path skipped check_quiescence and the leak went unreported.
    with pytest.raises(SanitizerError, match="leaked|deadlock"):
        sim.run(until=10.0)


def test_bounded_run_stopping_early_does_not_check_quiescence():
    sim = Simulator(sanitize=True)
    _leaky_waiter(sim)
    sim.run(until=0.25)  # events still pending beyond the bound: no check
    assert sim.now == 0.25


def test_unbounded_run_still_checks_quiescence():
    sim = Simulator(sanitize=True)
    _leaky_waiter(sim)
    with pytest.raises(SanitizerError, match="leaked|deadlock"):
        sim.run()
