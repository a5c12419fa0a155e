"""Runtime sanitizer: deadlocks, leaks, double triggers, clock monotonicity,
stranding cancels."""


import pytest

from repro.sim import (
    Event,
    Interrupt,
    Lock,
    Resource,
    SanitizerError,
    SimulationError,
    Simulator,
    Store,
)


# ------------------------------------------------------------------- set-up
def test_sanitize_flag_arms_sanitizer():
    assert Simulator().sanitizer is None
    assert Simulator(sanitize=True).sanitizer is not None
    assert Simulator(sanitize=False).sanitizer is None


def test_env_var_arms_sanitizer(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert Simulator().sanitizer is not None
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    assert Simulator().sanitizer is None
    # Explicit argument beats the environment.
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert Simulator(sanitize=False).sanitizer is None


# ----------------------------------------------------------------- deadlock
def _two_lock_deadlock(sim):
    lock_a, lock_b = Lock(sim), Lock(sim)

    def philosopher_one():
        with lock_a.acquire() as first:
            yield first
            yield sim.timeout(1)
            with lock_b.acquire() as second:
                yield second

    def philosopher_two():
        with lock_b.acquire() as first:
            yield first
            yield sim.timeout(1)
            with lock_a.acquire() as second:
                yield second

    sim.process(philosopher_one())
    sim.process(philosopher_two())


def test_deadlock_detected_with_process_names():
    sim = Simulator(sanitize=True)
    _two_lock_deadlock(sim)
    with pytest.raises(SanitizerError) as excinfo:
        sim.run()
    message = str(excinfo.value)
    assert "philosopher_one" in message
    assert "philosopher_two" in message
    assert "deadlock" in message


def test_deadlock_silent_without_sanitizer():
    sim = Simulator()
    _two_lock_deadlock(sim)
    sim.run()  # quiesces silently: exactly the hazard the sanitizer closes


def test_run_until_complete_deadlock_report():
    sim = Simulator(sanitize=True)
    lock = Lock(sim)

    def holder():
        with lock.acquire() as token:
            yield token
            yield Event(sim)  # never triggered

    def blocked():
        with lock.acquire() as token:
            yield token

    sim.process(holder())
    process = sim.process(blocked())
    with pytest.raises(SanitizerError) as excinfo:
        sim.run_until_complete(process)
    assert "blocked" in str(excinfo.value)
    assert "holder" in str(excinfo.value)


# -------------------------------------------------------------------- leaks
def test_leaked_slot_names_owning_process():
    sim = Simulator(sanitize=True)
    resource = Resource(sim)

    def leaker():
        grant = yield resource.request()  # noqa - deliberately unreleased
        yield sim.timeout(1)

    sim.process(leaker())
    with pytest.raises(SanitizerError) as excinfo:
        sim.run()
    message = str(excinfo.value)
    assert "leaked resource slots" in message
    assert "'leaker'" in message


def test_clean_with_usage_passes_quiescence():
    sim = Simulator(sanitize=True)
    resource = Resource(sim, capacity=1)
    finished = []

    def worker(tag):
        with resource.request() as grant:
            yield grant
            yield sim.timeout(1)
        finished.append(tag)

    sim.process(worker("a"))
    sim.process(worker("b"))
    sim.run()
    assert finished == ["a", "b"]
    assert sim.now == 2.0


def test_idle_store_waiter_is_not_an_error():
    # A server loop parked on an empty Store is the normal end state of a
    # run, not a deadlock: quiescence only fails on held/queued slots.
    sim = Simulator(sanitize=True)
    store = Store(sim)

    def server():
        while True:
            item = yield store.get()

    def client():
        yield store.put("one")
        yield sim.timeout(1)

    sim.process(server())
    sim.process(client())
    sim.run()
    assert sim.now == 1.0


# ---------------------------------------------------------- double triggers
def test_double_succeed_diagnosed_with_first_trigger():
    sim = Simulator(sanitize=True)
    event = sim.event()

    def double_trigger():
        event.succeed("first")
        yield sim.timeout(2)
        event.succeed("second")

    sim.process(double_trigger())
    with pytest.raises(SanitizerError) as excinfo:
        sim.run()
    message = str(excinfo.value)
    assert "triggered twice" in message
    assert "t=0" in message and "t=2" in message
    assert "double_trigger" in message


def test_double_fail_diagnosed():
    sim = Simulator(sanitize=True)
    event = sim.event()
    event.fail(RuntimeError("boom"))
    event.defuse()
    with pytest.raises(SanitizerError, match="triggered twice"):
        event.fail(RuntimeError("again"))


def test_double_succeed_without_sanitizer_keeps_old_error():
    sim = Simulator()
    event = sim.event()
    event.succeed(1)
    with pytest.raises(SimulationError, match="already triggered"):
        event.succeed(2)


# ------------------------------------------------------------- monotonicity
def test_non_monotonic_clock_detected():
    sim = Simulator(sanitize=True)
    sim.timeout(5)
    sim.run()
    assert sim.now == 5.0
    rogue = Event(sim)
    rogue._ok = True
    rogue._value = None
    sim._push_entry((1.0, sim._seq + 1, rogue, sim._now))  # in the past
    with pytest.raises(SanitizerError, match="non-monotonic"):
        sim.run()


# -------------------------------------------------------- stranding cancels
def _waiter_and_canceller(sim):
    """A process waiting on a 5s timer, and one cancelling it at t=1."""
    timer = sim.timeout(5)
    resumed = []

    def waiter():
        yield timer
        resumed.append(sim.now)

    def canceller():
        yield sim.timeout(1)
        timer.cancel()

    sim.process(waiter())
    sim.process(canceller())
    return timer, resumed


def test_cancel_under_a_waiting_process_is_diagnosed():
    sim = Simulator(sanitize=True)
    _waiter_and_canceller(sim)
    with pytest.raises(SanitizerError) as excinfo:
        sim.run()
    message = str(excinfo.value)
    assert "t=1" in message and "'waiter'" in message
    assert "never resume" in message


def test_cancel_strands_silently_without_sanitizer():
    sim = Simulator()
    timer, resumed = _waiter_and_canceller(sim)
    sim.run()
    assert timer._cancelled and resumed == [] and sim.now == 1.0


def test_cancel_after_the_waiter_left_is_clean():
    """An interrupted waiter detaches, so the timer may be cancelled."""
    sim = Simulator(sanitize=True)
    timer = sim.timeout(5)
    timer.callbacks.append(lambda event: None)  # a plain listener stays
    caught = []

    def waiter():
        try:
            yield timer
        except Interrupt:
            caught.append(sim.now)

    process = sim.process(waiter())

    def interrupter():
        yield sim.timeout(1)
        process.interrupt()
        yield sim.timeout(1)
        timer.cancel()

    sim.process(interrupter())
    sim.run()
    assert caught == [1.0] and timer._cancelled and sim.now == 2.0


# ------------------------------------------------------------- end to end
def test_sanitized_cluster_read_stays_clean(monkeypatch):
    # The full vRead stack must run leak-free under the sanitizer.
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    from repro.cluster import VirtualHadoopCluster
    from repro.storage.content import PatternSource

    payload = PatternSource(512 * 1024, seed=7)
    cluster = VirtualHadoopCluster(vread=True)
    assert cluster.sim.sanitizer is not None

    def load():
        yield from cluster.write_dataset("/sanitized", payload,
                                         favored=["dn1"])

    cluster.run(cluster.sim.process(load()))
    cluster.settle()

    def read():
        source = yield from cluster.clients.get().read_file("/sanitized")
        return source

    source = cluster.run(cluster.sim.process(read()))
    assert source.checksum() == payload.checksum()
