"""Shared resources: capacity-limited resources, stores, locks, containers.

These follow SimPy's request/release idiom but are trimmed to what the
vRead simulation needs.  All waiters are served FIFO, which keeps the
simulation deterministic.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Iterable, List, Optional

from repro.sim.events import Event, SimulationError


class Request(Event):
    """The event returned by :meth:`Resource.request`; fires on acquisition.

    A request is a context manager, so the release is guaranteed on every
    exit path::

        with resource.request() as req:
            yield req          # wait for the slot
            ...critical section...

    On ``with``-exit a granted slot is released; a request that is still
    queued (e.g. the waiting process was interrupted) is withdrawn instead.
    Manual ``request()``/``release()`` pairing still works but must release
    on all paths — the ``resource-leak`` simlint rule checks this.
    """

    __slots__ = ("resource", "owner")

    def __init__(self, resource: "Resource"):
        super().__init__(resource.sim)
        self.resource = resource
        #: The process that issued the request (None outside any process).
        self.owner = resource.sim.active_process

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        if self.triggered:
            self.resource.release(self)
        else:
            self.resource.cancel(self)
        return False


class Resource:
    """A resource with ``capacity`` concurrent slots and a FIFO wait queue.

    ``name`` is optional and purely diagnostic: the sanitizer's lock-order
    reports read much better over ``<Resource 'disk'>`` than over bare
    object ids.
    """

    def __init__(self, sim: "Simulator", capacity: int = 1,  # noqa: F821
                 name: Optional[str] = None):
        if not capacity >= 1:  # also rejects NaN
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._users: List[Request] = []
        self._queue: Deque[Request] = deque()
        if sim.sanitizer is not None:
            sim.sanitizer.register_resource(self)

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of waiting requests."""
        return len(self._queue)

    def request(self) -> Request:
        """Request a slot; the returned event fires when granted."""
        req = Request(self)
        sanitizer = self.sim.sanitizer
        if sanitizer is not None:
            sanitizer.note_lock_request(self, req)
        if len(self._users) < self.capacity:
            self._users.append(req)
            if sanitizer is not None:
                sanitizer.note_lock_acquired(self, req)
            req.succeed(req)
        else:
            self._queue.append(req)
        return req

    def release(self, request: Request) -> None:
        """Release a previously granted slot and wake the next waiter."""
        try:
            self._users.remove(request)
        except ValueError:
            raise SimulationError("releasing a request that holds no slot")
        sanitizer = self.sim.sanitizer
        if sanitizer is not None:
            sanitizer.note_lock_released(self, request)
        if self._queue:
            nxt = self._queue.popleft()
            self._users.append(nxt)
            if sanitizer is not None:
                sanitizer.note_lock_acquired(self, nxt)
            nxt.succeed(nxt)

    def cancel(self, request: Request) -> None:
        """Withdraw a queued (not yet granted) request."""
        try:
            self._queue.remove(request)
        except ValueError:
            raise SimulationError("cancelling a request that is not queued")

    def queued_requests(self) -> Iterable[Request]:
        """The requests currently waiting for a slot (sanitizer reports)."""
        return tuple(self._queue)

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (f"<{type(self).__name__}{label} capacity={self.capacity} "
                f"held={self.count} queued={self.queue_length}>")


class Lock:
    """A mutual-exclusion convenience wrapper around a capacity-1 resource.

    Usage inside a process::

        with lock.acquire() as holder:
            yield holder
            ...critical section...
    """

    def __init__(self, sim: "Simulator",  # noqa: F821
                 name: Optional[str] = None):
        self._resource = Resource(sim, capacity=1, name=name)

    @property
    def locked(self) -> bool:
        return self._resource.count > 0

    @property
    def waiters(self) -> int:
        return self._resource.queue_length

    def acquire(self) -> Request:
        return self._resource.request()

    def release(self, request: Request) -> None:
        self._resource.release(request)


class Store:
    """A FIFO buffer of items with optional bounded capacity.

    Used to model socket buffers, virtqueues, and the vRead ring channel.
    ``put`` blocks when full (if bounded); ``get`` blocks when empty.
    """

    def __init__(self, sim: "Simulator", capacity: float = float("inf")):  # noqa: F821
        if not capacity > 0:  # also rejects NaN
            raise SimulationError(f"capacity must be positive, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._putters: Deque[tuple] = deque()  # (event, item)
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> Event:
        """Insert ``item``; the returned event fires once it is accepted."""
        event = Event(self.sim)
        if self._getters:
            # Hand the item straight to the oldest waiting getter.
            getter = self._getters.popleft()
            getter.succeed(item)
            event.succeed(None)
        elif len(self.items) < self.capacity:
            self.items.append(item)
            event.succeed(None)
        else:
            self._putters.append((event, item))
        return event

    def get(self) -> Event:
        """Remove the oldest item; the returned event fires with the item."""
        event = Event(self.sim)
        if self.items:
            item = self.items.popleft()
            event.succeed(item)
            if self._putters:
                putter, pending = self._putters.popleft()
                self.items.append(pending)
                putter.succeed(None)
        else:
            self._getters.append(event)
        return event

    def try_get(self) -> Optional[Any]:
        """Non-blocking get; returns None when empty."""
        if not self.items:
            return None
        item = self.items.popleft()
        if self._putters:
            putter, pending = self._putters.popleft()
            self.items.append(pending)
            putter.succeed(None)
        return item

    def prune_cancelled(self) -> int:
        """Drop queued getters/putters whose waiter was interrupted.

        An interrupted process detaches from the event it was waiting on,
        leaving the event queued here with no listeners; a later ``put``
        would then hand its item to nobody.  Returns how many orphaned
        waiters were removed.
        """
        live_getters = deque(e for e in self._getters if e.callbacks)
        live_putters = deque(p for p in self._putters if p[0].callbacks)
        removed = (len(self._getters) - len(live_getters)
                   + len(self._putters) - len(live_putters))
        self._getters = live_getters
        self._putters = live_putters
        return removed


class Container:
    """A continuous-quantity reservoir (e.g. bytes of buffer space)."""

    def __init__(self, sim: "Simulator", capacity: float = float("inf"),  # noqa: F821
                 init: float = 0.0):
        if not capacity > 0:  # also rejects NaN
            raise SimulationError("capacity must be positive")
        if not 0 <= init <= capacity:
            raise SimulationError("init must be within [0, capacity]")
        self.sim = sim
        self.capacity = capacity
        self._level = init
        self._putters: Deque[tuple] = deque()  # (event, amount)
        self._getters: Deque[tuple] = deque()  # (event, amount)

    @property
    def level(self) -> float:
        return self._level

    def put(self, amount: float) -> Event:
        if not amount > 0:  # also rejects NaN
            raise SimulationError("put amount must be positive")
        if amount > self.capacity:
            raise SimulationError("put amount exceeds container capacity")
        event = Event(self.sim)
        self._putters.append((event, amount))
        self._settle()
        return event

    def get(self, amount: float) -> Event:
        if not amount > 0:  # also rejects NaN
            raise SimulationError("get amount must be positive")
        if amount > self.capacity:
            raise SimulationError("get amount exceeds container capacity")
        event = Event(self.sim)
        self._getters.append((event, amount))
        self._settle()
        return event

    def prune_cancelled(self) -> int:
        """Drop queued puts/gets whose waiter was interrupted (see
        :meth:`Store.prune_cancelled`); re-settles afterwards since removing
        a blocked head may unblock the queue."""
        live_getters = deque(g for g in self._getters if g[0].callbacks)
        live_putters = deque(p for p in self._putters if p[0].callbacks)
        removed = (len(self._getters) - len(live_getters)
                   + len(self._putters) - len(live_putters))
        self._getters = live_getters
        self._putters = live_putters
        if removed:
            self._settle()
        return removed

    def _settle(self) -> None:
        """Grant queued puts/gets while progress is possible (FIFO each side)."""
        progressed = True
        while progressed:
            progressed = False
            if self._putters and self._level + self._putters[0][1] <= self.capacity:
                event, amount = self._putters.popleft()
                self._level += amount
                event.succeed(None)
                progressed = True
            if self._getters and self._level >= self._getters[0][1]:
                event, amount = self._getters.popleft()
                self._level -= amount
                event.succeed(amount)
                progressed = True
