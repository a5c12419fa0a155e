"""Runtime sanitizer for the simulation kernel.

The kernel's determinism and resource-safety claims are enforced by
convention in normal runs; with ``Simulator(sanitize=True)`` (or the
``REPRO_SANITIZE=1`` environment variable) they become machine-checked
invariants.  The sanitizer watches these hazard classes:

* **non-monotonic clock** — an event popped from the heap with a timestamp
  earlier than the current simulation time;
* **double trigger** — ``succeed``/``fail`` called on an event that has
  already been given a value (diagnosed with who triggered it first, and
  when);
* **leaked resource slots** — the event heap drains while a
  :class:`~repro.sim.resources.Resource` slot is still held;
* **deadlock** — the event heap drains while requests are still queued on
  a resource (the waiters can never be woken);
* **stranding cancel** — ``Timeout.cancel()`` on a timer that a live
  process still waits on (that process could never resume);
* **lock-order inversion** — a process requests resource B while holding
  resource A after some process has already acquired A while holding B
  (any cycle length).  This is the lockdep-style *would-be* deadlock
  check: it fires at the inverted acquisition, naming both chains with
  their owning processes, **before** the simulation wedges — the post-hoc
  quiescence check above only triggers once the heap has drained.

Every failure raises :class:`~repro.sim.events.SanitizerError` carrying a
readable diagnostic that names the owning/waiting processes.

The sanitizer costs a little memory (it keeps references to every process
and resource), so it is off by default and intended for tests and CI.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.sim.events import Event, SanitizerError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.sim.kernel import Simulator
    from repro.sim.process import Process
    from repro.sim.resources import Request, Resource


class Sanitizer:
    """Collects live kernel objects and checks invariants over them."""

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._resources: List["Resource"] = []
        self._processes: List["Process"] = []
        # ---- lock-order detector state ----
        #: owner -> resources currently held, in acquisition order.
        self._held: Dict[object, List["Resource"]] = {}
        #: id(A) -> {id(B): (process name, t)}: some process acquired (or
        #: requested) B while holding A.  Edges accumulate for the whole
        #: simulation — order discipline is global, not per-instant.
        self._order: Dict[int, Dict[int, Tuple[str, float]]] = {}
        #: id(resource) -> resource, to render cycle reports.
        self._res_by_id: Dict[int, "Resource"] = {}

    # ---------------------------------------------------------- registration
    def register_resource(self, resource: "Resource") -> None:
        self._resources.append(resource)

    def register_process(self, process: "Process") -> None:
        self._processes.append(process)

    # ----------------------------------------------------------------- hooks
    def _process_name(self, process: Optional["Process"]) -> str:
        return process.name if process is not None else "<no process>"

    def current_process_name(self) -> str:
        return self._process_name(self.sim.active_process)

    def note_trigger(self, event: Event) -> None:
        """Record who triggered ``event`` (for double-trigger diagnostics)."""
        event._strace = (self.sim.now, self.current_process_name())

    def double_trigger_error(self, event: Event) -> SanitizerError:
        first = event._strace
        if first is not None:
            first_time, first_proc = first
            detail = (f"first triggered at t={first_time:g} by "
                      f"process {first_proc!r}")
        else:
            detail = "first triggered before sanitizer tracking began"
        return SanitizerError(
            f"{event!r} triggered twice: {detail}; "
            f"triggered again at t={self.sim.now:g} by process "
            f"{self.current_process_name()!r}")

    def check_cancel(self, timer: Event) -> None:
        """Refuse to cancel ``timer`` while a live process waits on it
        (a cancelled timer never fires, so that process would be stranded
        silently: the quiescence check sees only resource waiters)."""
        for callback in timer.callbacks:
            waiter = getattr(callback, "__self__", None)
            if getattr(waiter, "_target", None) is timer:
                raise SanitizerError(
                    f"{timer!r} cancelled at t={self.sim.now:g} while "
                    f"process {waiter.name!r} still waits on it; that "
                    f"process would never resume")

    def non_monotonic_error(self, when: float) -> SanitizerError:
        return SanitizerError(
            f"non-monotonic clock advance: popped an event scheduled at "
            f"t={when:g} while the clock already reads t={self.sim.now:g}")

    # ----------------------------------------------------------- lock order
    def note_lock_request(self, resource: "Resource",
                          request: "Request") -> None:
        """A process asks for ``resource`` (granted or queued).

        Records the acquisition-order edge ``held -> resource`` for every
        resource the requesting process already holds, and reports a
        would-be deadlock the moment an edge closes a cycle in the global
        acquisition-order graph — i.e. at the *inverted* acquisition,
        before any process actually wedges.
        """
        owner = request.owner
        if owner is None:
            return
        held = self._held.get(owner)
        if not held:
            return
        for prior in held:
            if prior is resource:
                continue  # re-entrant semaphore acquire: no ordering edge
            self._add_order_edge(prior, resource, owner)

    def note_lock_acquired(self, resource: "Resource",
                           request: "Request") -> None:
        """``request`` now holds a slot on ``resource``."""
        owner = request.owner
        if owner is None:
            return
        self._res_by_id[id(resource)] = resource
        self._held.setdefault(owner, []).append(resource)

    def note_lock_released(self, resource: "Resource",
                           request: "Request") -> None:
        """``request``'s slot on ``resource`` was released."""
        owner = request.owner
        if owner is None:
            return
        held = self._held.get(owner)
        if not held:
            return
        for index in range(len(held) - 1, -1, -1):
            if held[index] is resource:
                del held[index]
                break
        if not held:
            del self._held[owner]

    def _add_order_edge(self, first: "Resource", then: "Resource",
                        owner: object) -> None:
        edges = self._order.setdefault(id(first), {})
        if id(then) in edges:
            return
        self._res_by_id[id(first)] = first
        self._res_by_id[id(then)] = then
        cycle = self._find_path(id(then), id(first))
        if cycle is not None:
            raise self._lock_order_error(first, then, owner, cycle)
        edges[id(then)] = (self._process_name(owner), self.sim.now)

    def _find_path(self, start: int, goal: int) -> Optional[List[int]]:
        """Node ids along an existing order path ``start -> ... -> goal``."""
        stack: List[Tuple[int, List[int]]] = [(start, [start])]
        seen = {start}
        while stack:
            node, path = stack.pop()
            if node == goal:
                return path
            for nxt in self._order.get(node, {}):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, path + [nxt]))
        return None

    def _lock_order_error(self, first: "Resource", then: "Resource",
                          owner: object, cycle: List[int]) -> SanitizerError:
        lines = [
            f"lock-order inversion (would-be deadlock) at t={self.sim.now:g}:"
            f" process {self._process_name(owner)!r} requests {then!r} while"
            f" holding {first!r}, but the opposite order is already"
            f" established:",
            f"  this chain:  {self._process_name(owner)!r} holds {first!r},"
            f" requests {then!r} at t={self.sim.now:g}",
        ]
        for here, nxt in zip(cycle, cycle[1:]):
            proc, when = self._order[here][nxt]
            lines.append(
                f"  prior chain: {proc!r} held"
                f" {self._res_by_id[here]!r}, then acquired"
                f" {self._res_by_id[nxt]!r} at t={when:g}")
        lines.append(
            "  acquiring these resources in a consistent global order"
            " removes the deadlock")
        return SanitizerError("\n".join(lines))

    # ----------------------------------------------------------- quiescence
    def _held_slots(self) -> List[Tuple["Resource", "Request"]]:
        return [(res, req) for res in self._resources for req in res._users]

    def _queued_requests(self) -> List[Tuple["Resource", "Request"]]:
        return [(res, req) for res in self._resources
                for req in res.queued_requests()]

    def _waiting_processes(self) -> List["Process"]:
        return [p for p in self._processes
                if p.is_alive and p._target is not None]

    def quiescence_report(self) -> str:
        """Readable dump of held slots, blocked requests, alive processes."""
        lines = [f"at t={self.sim.now:g} with the event heap drained:"]
        held = self._held_slots()
        if held:
            lines.append("  leaked resource slots:")
            for res, req in held:
                lines.append(f"    {res!r}: slot held by process "
                             f"{self._process_name(req.owner)!r}")
        queued = self._queued_requests()
        if queued:
            lines.append("  blocked requests (deadlock - no event can "
                         "ever grant them):")
            for res, req in queued:
                lines.append(f"    {res!r}: process "
                             f"{self._process_name(req.owner)!r} waiting "
                             f"for a slot")
        waiting = self._waiting_processes()
        if waiting:
            lines.append("  processes still alive:")
            for process in waiting:
                lines.append(f"    {process!r} waiting on "
                             f"{process._target!r}")
        return "\n".join(lines)

    def check_quiescence(self) -> None:
        """Raise if the drained simulation left slots held or waiters queued.

        Processes parked on plain events (e.g. idle server loops waiting on
        a :class:`~repro.sim.resources.Store`) are reported but are not, by
        themselves, an error — that is the normal end state of a
        discrete-event run.
        """
        if self._held_slots() or self._queued_requests():
            raise SanitizerError(
                "simulation quiesced with leaked resource slots or "
                "deadlocked waiters\n" + self.quiescence_report())

    def deadlock_error(self, process: "Process") -> SanitizerError:
        """Heap exhausted before ``process`` completed."""
        return SanitizerError(
            f"event heap exhausted before process {process.name!r} "
            f"completed (deadlock)\n" + self.quiescence_report())
