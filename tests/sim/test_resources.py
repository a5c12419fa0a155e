"""Unit tests for Resource / Lock / Store / Container."""

import pytest

from repro.sim import (
    Container,
    Lock,
    Resource,
    SimulationError,
    Simulator,
    Store,
)


# ---------------------------------------------------------------- Resource
def test_resource_grants_up_to_capacity():
    sim = Simulator()
    resource = Resource(sim, capacity=2)
    first, second, third = resource.request(), resource.request(), resource.request()
    sim.run()
    assert first.triggered and second.triggered and not third.triggered
    assert resource.count == 2 and resource.queue_length == 1


def test_resource_release_wakes_fifo():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    grants = []

    def user(tag, hold):
        req = yield resource.request()
        grants.append((tag, sim.now))
        yield sim.timeout(hold)
        resource.release(req)

    sim.process(user("a", 2.0))
    sim.process(user("b", 1.0))
    sim.process(user("c", 1.0))
    sim.run()
    assert grants == [("a", 0.0), ("b", 2.0), ("c", 3.0)]


def test_resource_release_unheld_is_error():
    sim = Simulator()
    resource = Resource(sim)
    req = resource.request()
    sim.run()
    resource.release(req)
    with pytest.raises(SimulationError):
        resource.release(req)


def test_resource_cancel_queued_request():
    sim = Simulator()
    resource = Resource(sim, capacity=1)
    held = resource.request()
    queued = resource.request()
    resource.cancel(queued)
    assert resource.queue_length == 0
    with pytest.raises(SimulationError):
        resource.cancel(held)


def test_resource_capacity_validation():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Resource(sim, capacity=0)


# --------------------------------------------------------------------- Lock
def test_lock_mutual_exclusion():
    sim = Simulator()
    lock = Lock(sim)
    inside = []
    max_inside = []

    def critical(tag):
        holder = yield lock.acquire()
        inside.append(tag)
        max_inside.append(len(inside))
        yield sim.timeout(1.0)
        inside.remove(tag)
        lock.release(holder)

    for tag in range(4):
        sim.process(critical(tag))
    sim.run()
    assert max(max_inside) == 1
    assert sim.now == 4.0


def test_lock_locked_flag():
    sim = Simulator()
    lock = Lock(sim)
    assert not lock.locked
    holder = lock.acquire()
    sim.run()
    assert lock.locked
    lock.release(holder)
    assert not lock.locked


# -------------------------------------------------------------------- Store
def test_store_put_get_fifo():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer():
        for _ in range(3):
            got.append((yield store.get()))

    sim.process(consumer())
    for item in (1, 2, 3):
        store.put(item)
    sim.run()
    assert got == [1, 2, 3]


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer():
        got.append(((yield store.get()), sim.now))

    def producer():
        yield sim.timeout(5.0)
        yield store.put("late")

    sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert got == [("late", 5.0)]


def test_bounded_store_put_blocks_when_full():
    sim = Simulator()
    store = Store(sim, capacity=1)
    events = []

    def producer():
        yield store.put("a")
        events.append(("put-a", sim.now))
        yield store.put("b")
        events.append(("put-b", sim.now))

    def consumer():
        yield sim.timeout(3.0)
        item = yield store.get()
        events.append((f"got-{item}", sim.now))

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert ("put-a", 0.0) in events
    assert ("put-b", 3.0) in events  # unblocked by the get at t=3


def test_store_try_get():
    sim = Simulator()
    store = Store(sim)
    assert store.try_get() is None
    store.put("x")
    sim.run()
    assert store.try_get() == "x"
    assert store.try_get() is None


def test_store_try_get_unblocks_putter():
    sim = Simulator()
    store = Store(sim, capacity=1)
    store.put("a")
    blocked_put = store.put("b")
    sim.run()
    assert not blocked_put.triggered
    assert store.try_get() == "a"
    sim.run()
    assert blocked_put.triggered
    assert store.try_get() == "b"


def test_store_invalid_capacity():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Store(sim, capacity=0)


# ---------------------------------------------------------------- Container
def test_container_put_get_levels():
    sim = Simulator()
    container = Container(sim, capacity=100, init=10)
    container.put(40)
    sim.run()
    assert container.level == 50
    container.get(30)
    sim.run()
    assert container.level == 20


def test_container_get_blocks_until_available():
    sim = Simulator()
    container = Container(sim, capacity=100)
    times = []

    def consumer():
        yield container.get(50)
        times.append(sim.now)

    def producer():
        yield sim.timeout(2.0)
        yield container.put(50)

    sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert times == [2.0]


def test_container_put_blocks_at_capacity():
    sim = Simulator()
    container = Container(sim, capacity=10, init=10)
    done = []

    def producer():
        yield container.put(5)
        done.append(sim.now)

    def consumer():
        yield sim.timeout(1.0)
        yield container.get(5)

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert done == [1.0]


def test_container_validation():
    sim = Simulator()
    container = Container(sim, capacity=10)
    with pytest.raises(SimulationError):
        container.put(0)
    with pytest.raises(SimulationError):
        container.get(-1)
    with pytest.raises(SimulationError):
        container.put(11)
    with pytest.raises(SimulationError):
        Container(sim, capacity=5, init=6)
