"""The simulator event loop.

:class:`Simulator` owns the clock and the pending-event structure.  Time is
a float in **seconds**.  Ties are broken by insertion order, making runs
fully deterministic.

The pending structure is one binary heap (``heapq``) of ``(when, seq,
event, scheduled_at)`` tuples, drained in ``(when, seq)`` order.  It holds
only live work: a popped entry is gone, and a cancelled timer
(:meth:`~repro.sim.events.Timeout.cancel`) drops its callbacks at once, so
the entry that waits for the head (or for a compaction) pins nothing but
the timer itself.  On the registry the heap never holds more than about
520 entries, nearly all of them cancelled deadline timers, so a push costs
about nine comparisons.

Passing ``sanitize=True`` (or setting ``REPRO_SANITIZE=1`` in the
environment) arms the runtime sanitizer: non-monotonic clock advances,
double-triggered events, leaked resource slots and deadlocked waiters then
raise :class:`~repro.sim.events.SanitizerError` with a diagnostic naming
the offending processes.  See :mod:`repro.sim.sanitizer`.

The loop also keeps cheap occupancy statistics (events processed, cancelled
timers discarded, pending high-water mark, compactions) that the profiling
harness (``python -m repro profile --kernel``) reads via
:func:`kernel_stats`.
"""

from __future__ import annotations

import os
from heapq import heapify, heappop, heappush
from typing import Any, Dict, Generator, Optional

from repro.sim.events import Event, SimulationError, Timeout
from repro.sim.events import _PENDING as _EVENT_PENDING
from repro.sim.process import Process
from repro.sim.sanitizer import Sanitizer

#: Cancelled-entry compaction: rebuild the pending structure once at least
#: this many cancelled timers are outstanding *and* they make up half of it.
_COMPACT_MIN = 512

#: Process-wide kernel counters, summed over every Simulator as its run
#: loop exits (the profiling harness resets/reads these around a workload).
_STATS: Dict[str, int] = {}


def reset_kernel_stats() -> None:
    """Zero the process-wide kernel counters (see :func:`kernel_stats`)."""
    _STATS.update(simulators=0, events_processed=0, events_scheduled=0,
                  cancelled_discarded=0, compactions=0, heap_high_water=0,
                  wheel_overflow=0)


def kernel_stats() -> Dict[str, int]:
    """Process-wide kernel counters accumulated since the last reset.

    ``events_scheduled`` counts schedule calls, ``events_processed`` counts
    entries whose callbacks ran, ``cancelled_discarded`` counts withdrawn
    timers dropped (at the head or by compaction), and ``heap_high_water``
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
        #: Cancelled timers still pending (compaction trigger).
        self._ncancelled: int = 0
        #: Per-simulator counters mirrored into the module totals on drain.
        self.events_processed: int = 0
        self.cancelled_discarded: int = 0
        self.compactions: int = 0
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
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past ({delay})")
        self._seq += 1
        heappush(self._heap, (self._now + delay, self._seq, event, self._now))

    def schedule_at(self, when: float, event: Event) -> None:
        """Schedule a triggered event at absolute time ``when``.

        Unlike :meth:`_enqueue` this avoids the ``now + (when - now)``
        round-trip, so a re-armed timer lands *exactly* on a previously
        computed fold boundary (float addition is not associative).
        """
        if when < self._now:
            raise SimulationError(
                f"cannot schedule into the past ({when} < {self._now})")
        self._seq += 1
        heappush(self._heap, (when, self._seq, event, self._now))

    def _push_entry(self, entry) -> None:
        """Place a raw ``(when, seq, event, scheduled_at)`` entry directly.

        Test/diagnostic hook: a past-time entry drains next, where sanitize
        mode then reports the non-monotonic clock.
        """
        heappush(self._heap, entry)

    def _quiet_at(self, now: float) -> bool:
        """True when no pending entry (cancelled included) is due at or
        before ``now`` — the CPU scheduler's ceremony-elision guard."""
        heap = self._heap
        return not heap or heap[0][0] > now

    def _pending_count(self) -> int:
        """Number of pending entries (cancelled included)."""
        return len(self._heap)

    def _note_cancelled(self) -> None:
        """Bookkeeping for :meth:`Timeout.cancel`; may trigger compaction."""
        n = self._ncancelled + 1
        self._ncancelled = n
        if n >= _COMPACT_MIN and n + n >= len(self._heap):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries from the heap (in place: the run loop
        holds a reference to it)."""
        heap = self._heap
        live = [entry for entry in heap if not entry[2]._cancelled]
        removed = len(heap) - len(live)
        heap[:] = live
        heapify(heap)
        self._ncancelled = 0
        self.compactions += 1
        self.cancelled_discarded += removed
        _STATS["compactions"] += 1
        _STATS["cancelled_discarded"] += removed

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
        discarded = 0
        high_water = self.heap_high_water
        try:
            while heap:
                if bounded:
                    if wait is not None and wait._value is not pending:
                        return True
                    if until is not None and heap[0][0] > until:
                        return True
                when, _, event, scheduled_at = pop(heap)
                if event._cancelled:
                    discarded += 1
                    continue
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
            self.cancelled_discarded += discarded
            self._ncancelled = max(0, self._ncancelled - discarded)
            if high_water > self.heap_high_water:
                self.heap_high_water = high_water
            _STATS["events_processed"] += processed
            _STATS["cancelled_discarded"] += discarded
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
            if until < self._now:
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
        while heap and heap[0][2]._cancelled:
            heappop(heap)
            self.cancelled_discarded += 1
            _STATS["cancelled_discarded"] += 1
            if self._ncancelled:
                self._ncancelled -= 1
        return heap[0][0] if heap else float("inf")

    def __repr__(self) -> str:
        return f"<Simulator now={self._now} pending={self._pending_count()}>"
