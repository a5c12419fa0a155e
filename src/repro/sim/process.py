"""Simulation processes.

A :class:`Process` wraps a generator and drives it: every object the
generator yields must be an :class:`~repro.sim.events.Event`; the process
suspends until that event fires, then resumes with the event's value (or
with the event's exception raised inside the generator).

A process is itself an event that fires when the generator returns, with the
generator's return value as the event value — so processes can wait on each
other by yielding them.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Generator, Optional

from repro.sim.events import Event, Interrupt, SimulationError, Timeout


class Process(Event):
    """An event-yielding coroutine driven by the simulator."""

    __slots__ = ("_generator", "_send", "_throw", "_target", "_relay",
                 "name")

    def __init__(self, sim: "Simulator", generator: Generator):  # noqa: F821
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(
                f"process body must be a generator, got {generator!r}")
        super().__init__(sim)
        self._generator = generator
        # Bound-method caches: _resume runs once per yield, per process.
        self._send = generator.send
        self._throw = generator.throw
        #: The event this process is currently waiting on (None if running).
        self._target: Optional[Event] = None
        #: Reusable zero-delay relay (see _resume); one per process.
        self._relay: Optional[Event] = None
        self.name = getattr(generator, "__name__", type(generator).__name__)
        if sim.sanitizer is not None:
            sim.sanitizer.register_process(self)
        # Kick the process off via an immediately-scheduled initial event.
        start = Event(sim)
        start.callbacks.append(self._resume)
        start.succeed(None)

    # ------------------------------------------------------------------ flow
    @property
    def is_alive(self) -> bool:
        """True while the generator has not yet finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Raise :class:`Interrupt` inside the process at the current time.

        Interrupting a finished process is an error; interrupting a process
        that is waiting on an event detaches it from that event (the event
        still fires for other listeners).
        """
        if self.triggered:
            raise SimulationError(f"cannot interrupt finished process {self!r}")
        interrupt_event = Event(self.sim)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event.defuse()
        interrupt_event.callbacks.append(self._resume)
        self.sim._enqueue(0.0, interrupt_event)

    def _resume(self, event: Event) -> None:
        """Advance the generator with ``event``'s outcome."""
        # If we were interrupted while waiting on another event, detach from
        # it so a later firing does not resume us twice.
        sim = self.sim
        target = self._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
            # A timer nobody listens to anymore only stretches the drain
            # horizon; withdraw it from the heap.
            if isinstance(target, Timeout) and not target.callbacks:
                target.cancel()
        self._target = None

        sim._active_process = self
        try:
            if event._ok:
                result = self._send(event._value)
            else:
                event.defuse()
                result = self._throw(event._value)
        except StopIteration as stop:
            sim._active_process = None
            self.succeed(stop.value)
            return
        except BaseException as exc:
            sim._active_process = None
            self.fail(exc)
            return
        sim._active_process = None

        if not isinstance(result, Event):
            raise SimulationError(
                f"process {self.name!r} yielded non-event {result!r}")
        if result.sim is not sim:
            raise SimulationError(
                f"process {self.name!r} yielded an event from another simulator")
        if result._cancelled:
            raise SimulationError(
                f"process {self.name!r} yielded a cancelled timer {result!r}; "
                f"it would never fire")
        if result.callbacks is not None:
            result.callbacks.append(self._resume)
            self._target = result
        else:
            # Already fired: resume immediately (at the current instant) so
            # yielding a processed event behaves like a zero-delay wait.
            # The relay is private to this process and is processed before
            # the next one can be needed, so one instance is reused — unless
            # an interrupt detached us from it while it was still on the
            # heap (callbacks not yet discarded), in which case it must not
            # be re-armed and a fresh event is minted.
            relay = self._relay
            if relay is None or relay.callbacks is not None:
                relay = Event(sim)
                self._relay = relay
            else:
                relay.callbacks = []
                relay._defused = False
            relay._ok = result._ok
            relay._value = result._value
            if not result._ok:
                relay._defused = True
            relay.callbacks.append(self._resume)
            sim._seq += 1
            heappush(sim._heap, (sim._now, sim._seq, relay, sim._now))
            self._target = relay

    def __repr__(self) -> str:
        state = "finished" if self.triggered else "alive"
        return f"<Process {self.name} {state}>"
