"""The simulator event loop.

:class:`Simulator` owns the clock and the pending-event structure.  Time is
a float in **seconds**.  Ties are broken by insertion order, making runs
fully deterministic.

The pending structure is one binary heap (``heapq``) of ``(when, seq,
event, scheduled_at)`` tuples, drained in ``(when, seq)`` order.  It holds
only live work: a popped entry is gone, and a cancelled timer
(:meth:`~repro.sim.events.Timeout.cancel`) leaves the heap at once.  On the
registry the heap never holds more than a few dozen entries, so a push or
a pop costs about five comparisons and a cancel's linear search is short.

Passing ``sanitize=True`` (or setting ``REPRO_SANITIZE=1`` in the
environment) arms the runtime sanitizer: non-monotonic clock advances,
double-triggered events, leaked resource slots and deadlocked waiters then
raise :class:`~repro.sim.events.SanitizerError` with a diagnostic naming
the offending processes.  See :mod:`repro.sim.sanitizer`.

The loop also keeps cheap occupancy statistics (events processed, timers
withdrawn, pending high-water mark) that the profiling harness
(``python -m repro profile``) reads via :func:`kernel_stats`.
"""

from __future__ import annotations

import os
from heapq import _siftdown, _siftup, heappop, heappush
from typing import Any, Dict, Generator, Optional

from repro.sim.events import Event, SimulationError, Timeout
from repro.sim.events import _PENDING as _EVENT_PENDING
from repro.sim.process import Process
from repro.sim.sanitizer import Sanitizer

#: Process-wide kernel counters, summed over every Simulator as its run
#: loop exits (the profiling harness resets/reads these around a workload).
_STATS: Dict[str, int] = {}


def reset_kernel_stats() -> None:
    """Zero the process-wide kernel counters (see :func:`kernel_stats`)."""
    _STATS.update(simulators=0, events_processed=0, events_scheduled=0,
                  cancelled_discarded=0, heap_high_water=0,
                  wheel_overflow=0)


def kernel_stats() -> Dict[str, int]:
    """Process-wide kernel counters accumulated since the last reset.

    ``events_scheduled`` counts schedule calls, ``events_processed`` counts
    entries whose callbacks ran, ``cancelled_discarded`` counts cancelled
    timers withdrawn from the heap, and ``heap_high_water``
    is the largest pending-entry count observed (sampled every 256 events,
    so it is a close lower bound, not an exact maximum).

    ``wheel_overflow`` is always 0.  It counted the deleted timer wheel's
    far-future band and is kept only for ``benchmarks/e2e/bench.py``; this
    stub goes when the benchmark's next change drops its
    ``sim.kernel.wheel_overflow`` metric (ROADMAP.md, item 1).
    """
    return dict(_STATS)


reset_kernel_stats()


class Simulator:
    """Discrete-event simulator: clock, pending-event structure, run loop."""

    def __init__(self, sanitize: Optional[bool] = None) -> None:
        if sanitize is None:
            sanitize = os.environ.get("REPRO_SANITIZE", "") not in ("", "0")
        self._now: float = 0.0
        self._heap: list = []
        self._seq: int = 0
        self._active_process: Optional[Process] = None
        #: Simulated time at which the pending entry currently being
        #: processed was scheduled (pushed), or ``None`` outside event
        #: processing.  Tie-breaking consumers (the CPU scheduler's
        #: coalesced-burst commit) use it to decide whether the active
        #: event would have fired before or after a timer the fast path
        #: never minted.
        self._active_sched_time: Optional[float] = None
        #: Per-simulator counters, mirrored into the module totals.
        self.events_processed: int = 0
        self.cancelled_discarded: int = 0
        self.heap_high_water: int = 0
        self._flushed_seq: int = 0
        #: Runtime invariant checker; ``None`` unless sanitize mode is on.
        self.sanitizer: Optional[Sanitizer] = (
            Sanitizer(self) if sanitize else None)
        _STATS["simulators"] += 1

    # ----------------------------------------------------------------- clock
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._active_process

    # ------------------------------------------------------------- factories
    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        """Start a new process driving ``generator``."""
        return Process(self, generator)

    # ------------------------------------------------------------ scheduling
    def _enqueue(self, delay: float, event: Event) -> None:
        """Schedule a triggered event ``delay`` seconds from now."""
        if not delay >= 0:  # also rejects NaN
            raise SimulationError(f"cannot schedule into the past ({delay})")
        self._seq += 1
        heappush(self._heap, (self._now + delay, self._seq, event, self._now))

    def _push_entry(self, entry) -> None:
        """Place a raw ``(when, seq, event, scheduled_at)`` entry directly.

        Test/diagnostic hook: a past-time entry drains next, where sanitize
        mode then reports the non-monotonic clock.
        """
        heappush(self._heap, entry)

    def _withdraw(self, event: Event) -> None:
        """Remove ``event``'s pending entry (for :meth:`Timeout.cancel`).

        The heap is small, so a linear search by identity finds the entry;
        the last entry takes its slot and is sifted into place.  Keys
        ``(when, seq)`` are unique, so the pop order of the remaining
        entries does not depend on the heap's shape.
        """
        heap = self._heap
        for index, entry in enumerate(heap):
            if entry[2] is event:
                last = heap.pop()
                if index < len(heap):
                    heap[index] = last
                    _siftup(heap, index)
                    _siftdown(heap, 0, index)
                self.cancelled_discarded += 1
                _STATS["cancelled_discarded"] += 1
                return

    # ---------------------------------------------------------------- runner
    def _drain(self, until: Optional[float] = None,
               wait: Optional[Event] = None) -> bool:
        """The one event-loop body behind :meth:`run` and
        :meth:`run_until_complete`.

        Pops and fires events until the heap empties, the next event lies
        beyond ``until``, or ``wait`` triggers.  Returns ``True`` if the
        loop stopped because a bound was reached, ``False`` if it drained
        dry.
        """
        heap = self._heap
        sanitizer = self.sanitizer
        pop = heappop
        pending = _EVENT_PENDING
        bounded = wait is not None or until is not None
        processed = 0
        high_water = self.heap_high_water
        try:
            while heap:
                if bounded:
                    if wait is not None and wait._value is not pending:
                        return True
                    if until is not None and heap[0][0] > until:
                        return True
                when, _, event, scheduled_at = pop(heap)
                if sanitizer is not None and when < self._now:
                    raise sanitizer.non_monotonic_error(when)
                self._now = when
                self._active_sched_time = scheduled_at
                processed += 1
                if not processed & 255:
                    size = len(heap)
                    if size > high_water:
                        high_water = size
                callbacks = event.callbacks
                event.callbacks = None
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    raise event._value
            return False
        finally:
            self._active_sched_time = None
            self.events_processed += processed
            if high_water > self.heap_high_water:
                self.heap_high_water = high_water
            _STATS["events_processed"] += processed
            _STATS["events_scheduled"] += self._seq - self._flushed_seq
            self._flushed_seq = self._seq
            if high_water > _STATS["heap_high_water"]:
                _STATS["heap_high_water"] = high_water

    def run(self, until: Optional[float] = None) -> None:
        """Run until no events remain, or until simulated time ``until``.

        When ``until`` is given the clock is advanced exactly to it even if
        no event fires at that instant.  In sanitize mode a fully drained
        run is checked for quiescence on *both* paths (a bounded run that
        outlives every event must not hide leaked waiters).
        """
        if until is not None:
            if not until >= self._now:  # also rejects NaN
                raise SimulationError(
                    f"until={until} is in the past (now={self._now})")
            bounded = self._drain(until=until)
            self._now = until
            if not bounded and self.sanitizer is not None:
                self.sanitizer.check_quiescence()
            return
        self._drain()
        if self.sanitizer is not None:
            self.sanitizer.check_quiescence()

    def run_until_complete(self, process: Process) -> Any:
        """Run until ``process`` finishes; return its value (or re-raise)."""
        self._drain(wait=process)
        if process._value is _EVENT_PENDING:
            if self.sanitizer is not None:
                raise self.sanitizer.deadlock_error(process)
            raise SimulationError(
                "event heap exhausted before process completed (deadlock?)")
        if not process.ok:
            process.defuse()
            raise process._value
        return process.value

    def peek(self) -> float:
        """Time of the next scheduled event, or ``float('inf')`` if none."""
        heap = self._heap
        return heap[0][0] if heap else float("inf")

    def __repr__(self) -> str:
        return f"<Simulator now={self._now} pending={len(self._heap)}>"
