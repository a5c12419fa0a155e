"""Tests for the deadline/retry/backoff primitives."""

import pytest

from repro.faults import (
    DeadlineExceeded,
    RetryPolicy,
    VReadClientPolicy,
    call_with_deadline,
)
from repro.sim import Interrupt, Simulator
from repro.sim.rng import RandomStreams


def run(sim, generator):
    return sim.run_until_complete(sim.process(generator))


def test_deadline_returns_value_when_fast_enough():
    sim = Simulator()

    def work():
        yield sim.timeout(0.1)
        return "done"

    def guarded():
        result = yield from call_with_deadline(sim, work(), 1.0)
        return result

    assert run(sim, guarded()) == "done"
    assert sim.now == pytest.approx(0.1)


def test_deadline_expiry_raises_and_interrupts():
    sim = Simulator()
    cleaned = []

    def slow():
        try:
            yield sim.timeout(10.0)
        except Interrupt as interrupt:
            cleaned.append(interrupt.cause)
            raise

    def guarded():
        with pytest.raises(DeadlineExceeded, match="0.25"):
            yield from call_with_deadline(sim, slow(), 0.25)
        return True

    assert run(sim, guarded()) is True
    assert sim.now == pytest.approx(0.25)
    sim.run()  # deliver the interrupt to the abandoned sub-process
    assert sim.now == pytest.approx(0.25)  # and no clock stretch doing so
    assert len(cleaned) == 1
    assert isinstance(cleaned[0], DeadlineExceeded)


def test_deadline_none_is_unbounded():
    sim = Simulator()

    def slow():
        yield sim.timeout(100.0)
        return 42

    def guarded():
        result = yield from call_with_deadline(sim, slow(), None)
        return result

    assert run(sim, guarded()) == 42
    assert sim.now == pytest.approx(100.0)


def test_won_race_cancels_the_timer():
    """A completed operation must not leave its deadline on the heap —
    draining the sim would otherwise stretch the clock to the deadline."""
    sim = Simulator()

    def work():
        yield sim.timeout(0.01)

    def guarded():
        yield from call_with_deadline(sim, work(), 30.0)

    run(sim, guarded())
    sim.run()  # drain: the cancelled 30s timer must not advance the clock
    assert sim.now == pytest.approx(0.01)


def test_nested_deadlines_inner_wins():
    sim = Simulator()

    def slow():
        yield sim.timeout(10.0)

    def inner():
        yield from call_with_deadline(sim, slow(), 0.1)

    def outer():
        with pytest.raises(DeadlineExceeded):
            yield from call_with_deadline(sim, inner(), 5.0)

    run(sim, outer())
    sim.run()
    assert sim.now == pytest.approx(0.1)


def test_operation_errors_propagate_not_wrapped():
    sim = Simulator()

    class Boom(Exception):
        pass

    def explode():
        yield sim.timeout(0.01)
        raise Boom("bang")

    def guarded():
        with pytest.raises(Boom, match="bang"):
            yield from call_with_deadline(sim, explode(), 1.0)
        return "handled"

    assert run(sim, guarded()) == "handled"
    sim.run()
    assert sim.now == pytest.approx(0.01)


def test_retry_policy_backoff_grows_and_caps():
    policy = RetryPolicy(base_backoff=0.1, backoff_multiplier=2.0,
                         max_backoff=0.5, jitter=0.0)
    assert policy.backoff(0) == pytest.approx(0.1)
    assert policy.backoff(1) == pytest.approx(0.2)
    assert policy.backoff(2) == pytest.approx(0.4)
    assert policy.backoff(3) == pytest.approx(0.5)  # capped
    assert policy.backoff(10) == pytest.approx(0.5)


def test_retry_policy_jitter_is_seeded_and_bounded():
    policy = RetryPolicy(base_backoff=0.1, jitter=0.5)
    rng_a = RandomStreams(7).stream("retry")
    rng_b = RandomStreams(7).stream("retry")
    draws_a = [policy.backoff(0, rng_a) for _ in range(10)]
    draws_b = [policy.backoff(0, rng_b) for _ in range(10)]
    assert draws_a == draws_b  # same seed, same jitter
    assert all(0.1 <= d <= 0.1 * 1.5 for d in draws_a)
    assert len(set(draws_a)) > 1  # jitter actually varies


def test_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(base_backoff=-1)
    with pytest.raises(ValueError):
        VReadClientPolicy(reprobe_interval=0)


@pytest.mark.parametrize("field", ["attempt_timeout", "read_deadline"])
@pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
def test_retry_policy_rejects_bad_timeouts(field, value):
    with pytest.raises(ValueError, match=field):
        RetryPolicy(**{field: value})


@pytest.mark.parametrize("value", [0.0, -2.0, float("nan")])
def test_retry_policy_rejects_non_positive_multiplier(value):
    # A negative multiplier made backoff(1) negative (-0.04 at the
    # defaults), and the retry loop silently skipped its sleep.
    with pytest.raises(ValueError, match="backoff_multiplier"):
        RetryPolicy(backoff_multiplier=value)


@pytest.mark.parametrize("field", ["open_timeout", "read_timeout"])
@pytest.mark.parametrize("value", [0.0, -0.25, float("nan"), float("inf")])
def test_vread_client_policy_rejects_bad_timeouts(field, value):
    with pytest.raises(ValueError, match=field):
        VReadClientPolicy(**{field: value})


def test_policies_accept_unbounded_timeouts():
    policy = RetryPolicy(attempt_timeout=None, read_deadline=None)
    assert policy.attempt_timeout is None and policy.read_deadline is None
    client = VReadClientPolicy(open_timeout=None, read_timeout=None)
    assert client.open_timeout is None and client.read_timeout is None


def test_caller_interrupted_mid_race_does_not_crash_the_drain():
    """Regression: a process waiting inside ``call_with_deadline`` is itself
    interrupted (e.g. a daemon crash during a guarded remote read).  The
    guarded sub-process must be interrupted too, and its failure — which
    fails the now-unwatched AnyOf race — must not surface at drain time."""
    sim = Simulator()
    observed = []

    def slow():
        yield sim.timeout(10.0)

    def caller():
        try:
            yield from call_with_deadline(sim, slow(), 5.0)
        except Interrupt as interrupt:
            observed.append(interrupt.cause)

    victim = sim.process(caller())

    def crasher():
        yield sim.timeout(0.1)
        victim.interrupt("daemon crashed")

    sim.process(crasher())
    sim.run()  # must drain cleanly: no orphaned failed events
    assert observed == ["daemon crashed"]
    assert sim.now == pytest.approx(0.1)
