"""Event primitives for the discrete-event kernel.

An :class:`Event` is a one-shot occurrence with an optional value.  Events
are created against a :class:`~repro.sim.kernel.Simulator` and move through
three states: *pending* (created, not yet triggered), *triggered* (given a
value and placed on the simulator's event heap) and *processed* (callbacks
have run).  Processes suspend on events by ``yield``-ing them.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable, Iterable, List, Optional

#: Sentinel for "this event has no value yet".
_PENDING = object()


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel (double triggers etc.)."""


class SanitizerError(SimulationError):
    """An invariant violation caught by the runtime sanitizer.

    Raised only when the owning :class:`~repro.sim.kernel.Simulator` was
    created with ``sanitize=True`` (or ``REPRO_SANITIZE=1``); carries a
    readable diagnostic naming the offending processes/resources.
    """


class Interrupt(Exception):
    """Raised inside a process that was interrupted by another process.

    The interrupting party supplies ``cause`` which the interrupted process
    can inspect (e.g. to distinguish preemption from cancellation).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot event that processes can wait on.

    Events carry a value (set via :meth:`succeed`) or an exception (set via
    :meth:`fail`).  When a failed event is yielded by a process, the
    exception is re-raised inside that process.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_defused", "_strace",
                 "_cancelled")

    def __init__(self, sim: "Simulator"):  # noqa: F821 - forward ref
        self.sim = sim
        #: Callables invoked with this event once it is processed.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok = True
        self._defused = False
        self._cancelled = False
        #: (time, process name) of the first trigger — sanitizer mode only.
        self._strace: Optional[tuple] = None

    # ------------------------------------------------------------------ state
    @property
    def triggered(self) -> bool:
        """True once the event has been given a value."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run (callbacks list is discarded)."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value; raises if the event is not yet triggered."""
        if self._value is _PENDING:
            raise SimulationError(f"{self!r} has not been triggered")
        return self._value

    # ------------------------------------------------------------- triggering
    def _already_triggered_error(self) -> SimulationError:
        sanitizer = self.sim.sanitizer
        if sanitizer is not None:
            return sanitizer.double_trigger_error(self)
        return SimulationError(f"{self!r} already triggered")

    def _note_trigger(self) -> None:
        sanitizer = self.sim.sanitizer
        if sanitizer is not None:
            sanitizer.note_trigger(self)

    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully with ``value`` after ``delay``."""
        if self._value is not _PENDING:
            raise self._already_triggered_error()
        # Check the delay before any state changes: a rejected call must
        # leave the event pending.
        if not delay >= 0:  # also rejects NaN
            raise SimulationError(f"cannot schedule into the past ({delay})")
        self._ok = True
        self._value = value
        # Inlined _note_trigger + Simulator._enqueue: succeed() fires for
        # every message/grant/completion, so these two calls dominate the
        # kernel's per-event overhead.
        sim = self.sim
        sanitizer = sim.sanitizer
        if sanitizer is not None:
            sanitizer.note_trigger(self)
        sim._seq += 1
        heappush(sim._heap, (sim._now + delay, sim._seq, self, sim._now))
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event with an exception after ``delay``."""
        if not isinstance(exception, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exception!r}")
        if self._value is not _PENDING:
            raise self._already_triggered_error()
        # _enqueue checks the delay; it goes first so a rejected call
        # leaves the event pending.
        self.sim._enqueue(delay, self)
        self._ok = False
        self._value = exception
        self._note_trigger()
        return self

    def trigger(self, event: "Event") -> None:
        """Mirror another event's outcome onto this one (callback helper)."""
        if event._ok:
            self.succeed(event._value)
        else:
            event.defuse()
            self.fail(event._value)

    def defuse(self) -> None:
        """Mark a failed event as handled so the kernel won't crash on it."""
        self._defused = True

    # ------------------------------------------------------------ composition
    def __and__(self, other: "Event") -> "AllOf":
        return AllOf(self.sim, [self, other])

    def __or__(self, other: "Event") -> "AnyOf":
        return AnyOf(self.sim, [self, other])

    def __repr__(self) -> str:
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires automatically ``delay`` time units in the future."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):  # noqa: F821
        if not delay >= 0:  # also rejects NaN
            raise SimulationError(f"negative timeout delay {delay!r}")
        # Fully inlined Event.__init__ + _note_trigger + _enqueue: timeouts
        # are minted for every CPU slice and wire transfer, making this the
        # hottest constructor in the simulator.
        self.sim = sim
        self.callbacks = []
        self._ok = True
        self._value = value
        self._defused = False
        self._cancelled = False
        self._strace = None
        self.delay = delay
        sanitizer = sim.sanitizer
        if sanitizer is not None:
            sanitizer.note_trigger(self)
        sim._seq += 1
        heappush(sim._heap, (sim._now + delay, sim._seq, self, sim._now))

    def cancel(self) -> None:
        """Withdraw the timeout before it fires.

        The kernel removes the timeout's heap entry at once, so it never
        advances the clock or runs callbacks.  Used by deadline timers whose
        guarded operation already completed, so a won race does not stretch
        the simulation's drain horizon.  Only call this when no process
        still depends on the timeout firing.

        The callbacks are released too, or the cancelled timer would pin
        the finished race (the condition, the sub-process, its frames and
        its result) for as long as anything holds the timer.  The list is
        rebound, not cleared in place, so a caller that took the old list
        keeps it, and it is a fresh list, not ``None``, so the timeout does
        not read as processed.  A caller that moves the listeners elsewhere
        must take them before cancelling.  Cancelling a timeout that has
        already fired does nothing: it is no longer on the heap.
        """
        if not self._cancelled and self.callbacks is not None:
            self._cancelled = True
            self.callbacks = []
            self.sim._withdraw(self)

    def __repr__(self) -> str:
        state = " cancelled" if self._cancelled else ""
        return f"<Timeout delay={self.delay}{state}>"


class AbsoluteTimeout(Timeout):
    """A timeout pinned to an absolute instant rather than a relative delay.

    The CPU scheduler's coalesced-burst fast path re-arms timers onto
    previously computed slice-fold boundaries; scheduling those as
    ``now + (when - now)`` would not land exactly on ``when`` (float
    addition is not associative), so this event takes the absolute fire
    time and pushes it onto the heap verbatim.
    """

    __slots__ = ()

    def __init__(self, sim: "Simulator", when: float, value: Any = None):  # noqa: F821
        if not when >= sim._now:  # also rejects NaN
            raise SimulationError(
                f"absolute timeout in the past ({when} < {sim._now})")
        self.sim = sim
        self.callbacks = []
        self._ok = True
        self._value = value
        self._defused = False
        self._cancelled = False
        self._strace = None
        self.delay = when - sim._now
        sanitizer = sim.sanitizer
        if sanitizer is not None:
            sanitizer.note_trigger(self)
        sim._seq += 1
        heappush(sim._heap, (when, sim._seq, self, sim._now))


class Condition(Event):
    """Waits for a combination of events; base for :class:`AllOf`/:class:`AnyOf`.

    The condition's value is a dict mapping each *triggered* constituent
    event to its value at the moment the condition fired.
    """

    __slots__ = ("_events", "_count")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):  # noqa: F821
        super().__init__(sim)
        self._events = list(events)
        self._count = 0
        for event in self._events:
            if event.sim is not sim:
                raise SimulationError("events belong to different simulators")
        if not self._events:
            self.succeed({})
            return
        for event in self._events:
            if event.processed:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _satisfied(self, count: int, total: int) -> bool:
        raise NotImplementedError

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event._ok:
                event.defuse()
            return
        if not event._ok:
            event.defuse()
            self.fail(event._value)
            return
        self._count += 1
        if self._satisfied(self._count, len(self._events)):
            self.succeed({e: e._value for e in self._events if e.processed})


class AllOf(Condition):
    """Fires once *all* constituent events have fired."""

    __slots__ = ()

    def _satisfied(self, count: int, total: int) -> bool:
        return count == total


class AnyOf(Condition):
    """Fires as soon as *any* constituent event fires."""

    __slots__ = ()

    def _satisfied(self, count: int, total: int) -> bool:
        return count >= 1
