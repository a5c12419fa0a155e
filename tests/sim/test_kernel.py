"""Unit tests for the discrete-event kernel: clock, events, run loop."""

import pytest

from repro.sim import Event, SimulationError, Simulator
from repro.sim.events import AbsoluteTimeout


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()
    sim.timeout(2.5)
    sim.run()
    assert sim.now == 2.5


def test_run_until_advances_exactly_to_until():
    sim = Simulator()
    sim.timeout(10.0)
    sim.run(until=4.0)
    assert sim.now == 4.0


def test_run_until_processes_events_at_until():
    sim = Simulator()
    fired = []

    def proc():
        yield sim.timeout(3.0)
        fired.append(sim.now)

    sim.process(proc())
    sim.run(until=3.0)
    assert fired == [3.0]


def test_run_until_in_past_raises():
    sim = Simulator()
    sim.timeout(5.0)
    sim.run()
    with pytest.raises(SimulationError):
        sim.run(until=1.0)


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


_NAN = float("nan")


@pytest.mark.parametrize("schedule", [
    lambda sim: sim.timeout(_NAN),
    lambda sim: AbsoluteTimeout(sim, _NAN),
    lambda sim: sim.event().succeed(delay=_NAN),
    lambda sim: sim.event().fail(ValueError("x"), delay=_NAN),
    lambda sim: sim._enqueue(_NAN, sim.event()),
    lambda sim: sim.run(until=_NAN),
], ids=["timeout", "absolute", "succeed", "fail", "enqueue", "run_until"])
def test_nan_times_rejected(schedule):
    # NaN fails every comparison, so a ``< 0`` guard let it through: the
    # entry then fired between ordinary timers and set the clock to NaN.
    sim = Simulator(sanitize=False)
    for delay in (3.0, 1.0, 2.0):
        sim.timeout(delay)
    with pytest.raises(SimulationError):
        schedule(sim)
    fired = []
    for _ in range(3):
        sim.run(until=sim.peek())
        fired.append(sim.now)
    assert fired == [1.0, 2.0, 3.0]


@pytest.mark.parametrize("sanitize", [False, True], ids=["fast", "sanitized"])
@pytest.mark.parametrize("reject", [
    lambda ev: ev.succeed("early", delay=-1.0),
    lambda ev: ev.fail(ValueError("early"), delay=-1.0),
], ids=["succeed", "fail"])
def test_rejected_delay_leaves_event_pending(reject, sanitize):
    # A rejected trigger used to mark the event triggered anyway: the retry
    # then raised "already triggered" and the waiter never resumed.
    sim = Simulator(sanitize=sanitize)
    event = sim.event()
    woke = []

    def waiter():
        woke.append((yield event))

    sim.process(waiter())
    sim.run()
    with pytest.raises(SimulationError):
        reject(event)
    assert not event.triggered
    event.succeed("late", delay=1.0)
    sim.run()
    assert woke == ["late"] and sim.now == 1.0


def test_event_succeed_carries_value():
    sim = Simulator()
    event = sim.event()
    event.succeed("payload")
    sim.run()
    assert event.ok and event.value == "payload"


def test_event_double_trigger_rejected():
    sim = Simulator()
    event = sim.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_value_before_trigger_raises():
    sim = Simulator()
    event = sim.event()
    with pytest.raises(SimulationError):
        _ = event.value


def test_failed_undefused_event_crashes_run():
    sim = Simulator()
    event = sim.event()
    event.fail(RuntimeError("boom"))
    with pytest.raises(RuntimeError, match="boom"):
        sim.run()


def test_failed_defused_event_is_silent():
    sim = Simulator()
    event = sim.event()
    event.fail(RuntimeError("boom"))
    event.defuse()
    sim.run()  # must not raise


def test_fail_requires_exception():
    sim = Simulator()
    event = sim.event()
    with pytest.raises(SimulationError):
        event.fail("not an exception")


def test_same_time_events_fire_in_scheduling_order():
    sim = Simulator()
    order = []
    for tag in ("a", "b", "c"):
        event = sim.event()
        event.callbacks.append(lambda _, t=tag: order.append(t))
        event.succeed(None)
    sim.run()
    assert order == ["a", "b", "c"]


def test_peek_reports_next_event_time():
    sim = Simulator()
    assert sim.peek() == float("inf")
    sim.timeout(7.0)
    sim.timeout(3.0)
    assert sim.peek() == 3.0


def test_run_until_complete_returns_value():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)
        return 42

    assert sim.run_until_complete(sim.process(proc())) == 42


def test_run_until_complete_detects_deadlock():
    sim = Simulator()

    def proc():
        yield sim.event()  # never fires

    process = sim.process(proc())
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_until_complete(process)


def test_run_until_complete_reraises_process_error():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)
        raise ValueError("inner")

    process = sim.process(proc())
    with pytest.raises(ValueError, match="inner"):
        sim.run_until_complete(process)


def test_callbacks_receive_the_event():
    sim = Simulator()
    seen = []
    event = sim.event()
    event.callbacks.append(seen.append)
    event.succeed("x")
    sim.run()
    assert seen == [event]


def test_event_trigger_mirrors_success():
    sim = Simulator()
    source = sim.event()
    mirror = sim.event()
    source.callbacks.append(mirror.trigger)
    source.succeed(99)
    sim.run()
    assert mirror.ok and mirror.value == 99


def test_event_trigger_mirrors_failure():
    sim = Simulator()
    source = sim.event()
    mirror = sim.event()
    source.callbacks.append(mirror.trigger)
    source.fail(KeyError("k"))
    mirror.callbacks.append(lambda e: None)
    with pytest.raises(KeyError):
        sim.run()
