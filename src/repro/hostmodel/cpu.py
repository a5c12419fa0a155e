"""Time-sliced fair-share multicore CPU scheduler.

Every schedulable entity on a host — vCPU threads, vhost-net threads, qemu
I/O threads, vRead daemons, lookbusy hogs — is a :class:`Thread`.  A thread
burns CPU by ``yield from thread.run(cycles, category)``: the scheduler
dispatches it onto a free core (charging a context-switch cost) or queues it
FIFO when all cores are busy.  Bursts longer than the time slice are
preempted at slice boundaries whenever other threads are waiting, giving
round-robin fair sharing.

**The wait for a free core is the paper's I/O-thread synchronization
delay**: with 2 VMs on a quad-core host every vCPU and vhost thread finds a
core immediately; with 4 VMs (2 running lookbusy) dispatch queueing delays
every boundary crossing of the vanilla HDFS read path (Figs 3 and 9).

Two scheduler implementations coexist, and the simulator picks between
them with one switch, sanitize mode (``Simulator(sanitize=True)``, or
``REPRO_SANITIZE=1`` read when the simulator is built):

* the **sliced reference** (:meth:`CpuScheduler._execute_sliced`) wakes the
  simulator at every time-slice boundary.  Sanitize mode always runs it:
  its per-slice event ceremony is what the sanitizer's bookkeeping
  instruments, and it is the semantic reference the equivalence tests
  compare against;
* the **coalesced fast path** (:meth:`CpuScheduler._execute_fast`) runs in
  every other simulator.  It arms one whole-burst timer while no thread
  waits for a core and *demotes* it back to slice granularity the moment
  a contender arrives, replaying the reference's float arithmetic (same
  left-fold order) so clocks, charges and RNG draws stay bit-for-bit
  identical.  Contended rounds run on this path too, demoted to one timer
  per slice.

Known tie caveat: when an *unrelated* event chain lands on the exact float
instant of a slice boundary with a heap sequence number in the narrow
window the coalesced path cannot observe (created after the slice timer it
replaces would have been created), the two implementations may order that
instant differently.  The regression pins and the fast-vs-sanitize
equivalence tests (the property suite and whole registry experiments)
keep this theoretical corner empirically empty.
"""

from __future__ import annotations

import hashlib
import random
from collections import deque
from typing import Deque, Optional

from repro.metrics.accounting import CpuAccounting, OTHERS
from repro.hostmodel.costs import CostModel
from repro.sim import Event, Lock, SimulationError, Simulator
from repro.sim.events import AbsoluteTimeout


def epoch_stats() -> dict:
    """Always-zero counters, kept only for ``benchmarks/e2e/child.py``.

    The contended-round epoch engine these counted is gone: contended
    rounds run the demoting :class:`_Burst` path.  This stub goes when the
    benchmark's next change drops its ``hostmodel.epochs_*`` metrics
    (ROADMAP.md, item 1).
    """
    return dict.fromkeys(("epochs_formed", "epochs_completed",
                          "epochs_demoted", "epochs_rejected",
                          "epoch_records"), 0)


def reset_epoch_stats() -> None:
    """No-op companion of :func:`epoch_stats`, kept for the benchmark."""


class Thread:
    """A schedulable entity (vCPU, vhost-net, daemon, ...).

    A thread executes at most one burst at a time; concurrent ``run`` calls
    from different simulation processes serialize on the thread's mutex,
    modelling in-guest scheduling onto a single vCPU.
    """

    def __init__(self, scheduler: "CpuScheduler", name: str):
        self.scheduler = scheduler
        self.name = name
        self._mutex = Lock(scheduler.sim)

    def run(self, cycles: float, category: str):
        """Generator: burn ``cycles`` of CPU charged to ``category``.

        Use as ``yield from thread.run(...)`` inside a simulation process.
        """
        scheduler = self.scheduler
        if scheduler.sim.sanitizer is not None:
            return scheduler._execute_sliced(self, cycles, category)
        return scheduler._execute_fast(self, cycles, category)

    def __repr__(self) -> str:
        return f"<Thread {self.name}>"


class _Burst:
    """In-flight coalesced burst state (fast path only).

    Keeps the exact slice-fold cursor — ``t`` is the last committed
    boundary, ``rem`` the cycles outstanding at that boundary — so charges
    committed lazily (at segment wake-ups, demotions, or accounting reads)
    replay the reference loop's float arithmetic: identical left-folds,
    identical per-key read-modify-write sequences.
    :meth:`CpuScheduler._execute_fast` sets the cursor at the start of
    each segment.
    """

    __slots__ = ("scheduler", "thread_name", "category", "proc", "timer",
                 "armed_end", "arm_seq", "switch_end_wake", "t", "rem",
                 "switch_seconds", "switch_done", "slice_cycles",
                 "frequency_hz")

    def __init__(self, scheduler: "CpuScheduler", thread_name: str,
                 category: str, proc):
        self.scheduler = scheduler
        self.thread_name = thread_name
        self.category = category
        self.proc = proc
        self.timer = None
        self.armed_end = 0.0
        self.arm_seq = 0
        #: Timer armed at the dispatch-switch end (frequency-change demote):
        #: the wake there re-folds at the new clock and must not preempt —
        #: the reference loop never preempts at a switch boundary.
        self.switch_end_wake = False
        self.t = 0.0
        self.rem = 0.0
        self.switch_seconds = 0.0
        self.switch_done = True
        self.slice_cycles = 0.0
        self.frequency_hz = 0.0

    def next_boundary(self) -> float:
        """Absolute end of the first uncommitted slice.

        While the dispatch context switch is still pending this includes
        it: the reference loop cannot preempt before the first slice after
        dispatch completes.
        """
        t = self.t
        if not self.switch_done:
            t = t + self.switch_seconds
        rem = self.rem
        if rem > 0:
            burst = rem if rem < self.slice_cycles else self.slice_cycles
            t = t + burst / self.frequency_hz
        return t

    def commit(self, now: float, observer_sched: Optional[float] = None) -> None:
        """Charge every fold boundary up to and including ``now``.

        A boundary landing exactly on ``now`` is normally charged: the
        reference timer for it was created at the boundary's *start*, so a
        commit triggered by an event minted at the current instant (a
        wake-up, a demoting contender's grant) carries a higher sequence
        number, and the reference had already fired and charged by then.

        That assumption fails for *observers* — accounting reads driven by
        an event that was scheduled **before** the boundary's start (e.g. a
        probe timeout armed long ago that happens to land float-exactly on
        a slice end): in the reference, the observer's lower sequence
        number fires it *before* the slice timer, so it must not see that
        boundary charged.  Callers on an observer
        path pass the active event's schedule time (``observer_sched``);
        a boundary ending exactly at ``now`` is then charged only when the
        observer was scheduled at or after the boundary's start.  ``None``
        keeps the inclusive behaviour (the burst's own wake/interrupt path,
        or reads from outside event processing).
        """
        t = self.t
        accounting = self.scheduler.accounting
        busy = accounting._busy
        if not self.switch_done:
            end = t + self.switch_seconds
            if end > now:
                return
            if (end == now and observer_sched is not None
                    and observer_sched < t):
                return
            key = (self.thread_name, OTHERS)
            if key not in accounting._birth:
                # Back-date to the boundary the reference charged it at:
                # readers fold in birth order, so a late batched insert
                # must not reorder the float sum (see _fold_order).
                accounting._note_birth(key, end)
            busy[key] += self.switch_seconds
            t = end
            self.switch_done = True
        rem = self.rem
        if rem > 0:
            S = self.slice_cycles
            freq = self.frequency_hz
            key = (self.thread_name, self.category)
            # .get, not [] — reading a defaultdict would mint a 0.0 entry
            # for a burst that has not crossed a boundary yet, and the
            # reference only creates keys on the first real charge.
            total = busy.get(key, 0.0)
            changed = False
            while rem > 0:
                burst = rem if rem < S else S
                duration = burst / freq
                end = t + duration
                if end > now:
                    break
                if (end == now and observer_sched is not None
                        and observer_sched < t):
                    break
                if not changed and key not in accounting._birth:
                    accounting._note_birth(key, end)
                total += duration
                t = end
                rem = rem - burst
                changed = True
            if changed:
                busy[key] = total
            self.rem = rem
        self.t = t


class CpuScheduler:
    """FIFO-dispatch, round-robin-preemption scheduler over ``cores`` cores."""

    def __init__(self, sim: Simulator, cores: int, frequency_hz: float,
                 accounting: CpuAccounting, costs: Optional[CostModel] = None,
                 rng: Optional[random.Random] = None, name: str = "sched"):
        if cores < 1:
            raise SimulationError(f"need at least 1 core, got {cores}")
        if frequency_hz <= 0:
            raise SimulationError(f"frequency must be positive: {frequency_hz}")
        self.sim = sim
        self.cores = cores
        self.frequency_hz = frequency_hz
        self.accounting = accounting
        self.costs = costs or CostModel()
        if rng is None:
            seed = int.from_bytes(
                hashlib.sha256(name.encode()).digest()[:8], "big")
            rng = random.Random(seed)
        self._rng = rng
        self._free_cores = cores
        self._waiting: Deque[Event] = deque()
        self._threads: list = []
        #: Coalesced bursts currently holding a core (fast path only).
        self._inflight: list = []
        #: Wakeups that paid the CFS wake-stacking delay (observability).
        self.stacked_wakeups = 0
        #: Optional :class:`repro.metrics.tracing.Tracer` for scheduler
        #: events ('sched' category: dispatch/preempt/stacked/complete).
        self.tracer = None
        # Accounting reads must first charge the already-elapsed boundaries
        # of any in-flight coalesced burst, or a measurement window ending
        # mid-burst would miss busy time the reference path had charged.
        accounting.add_settle_hook(self._settle_inflight)
        # Stamp first charges with simulated time so the fast path's
        # back-dated key births (see _Burst.commit) sort consistently
        # against charges from other components.
        accounting.set_clock(lambda: sim._now)

    # ------------------------------------------------------------- factories
    def thread(self, name: str) -> Thread:
        """Create a new schedulable thread."""
        thread = Thread(self, name)
        self._threads.append(thread)
        return thread

    def retire_thread(self, thread: Thread) -> None:
        """Remove a thread this scheduler created (VM removed/migrated away).

        The thread object stays usable for any burst already in flight —
        retirement only drops it from the scheduler's roster so a migrated
        or deleted VM does not leak one entry per lifetime thread.
        """
        try:
            self._threads.remove(thread)
        except ValueError:
            raise SimulationError(
                f"thread {thread.name!r} does not belong to this scheduler")

    # ----------------------------------------------------------- observation
    @property
    def runnable_waiting(self) -> int:
        """Threads currently queued for a core."""
        return len(self._waiting)

    @property
    def busy_cores(self) -> int:
        return self.cores - self._free_cores

    def set_frequency(self, frequency_hz: float) -> None:
        """cpufreq-set: change the clock for all subsequent bursts."""
        if frequency_hz <= 0:
            raise SimulationError(f"frequency must be positive: {frequency_hz}")
        if self._inflight:
            # Segments were folded at the old clock; cut them at the end of
            # the interval currently in progress so every *later* slice is
            # re-folded at the new frequency, exactly where the reference
            # loop (which reads the clock at each slice start) would.
            self._demote_inflight(freq_change=True)
        self.frequency_hz = frequency_hz

    def seconds(self, cycles: float) -> float:
        """Duration of ``cycles`` at the current clock."""
        return cycles / self.frequency_hz

    # ------------------------------------------------------------- core pool
    def _acquire_core(self) -> Event:
        """Event that fires when a core is granted to the caller."""
        grant = Event(self.sim)
        if self._free_cores > 0:
            self._free_cores -= 1
            grant.succeed(None)
        else:
            self._waiting.append(grant)
            if self._inflight:
                # A contender appeared: every coalesced burst falls back to
                # slice-granular round-robin at its next boundary.
                self._demote_inflight()
        return grant

    def _release_core(self) -> None:
        """Hand the core to the next waiter, or return it to the pool."""
        if self._waiting:
            self._waiting.popleft().succeed(None)
        else:
            self._free_cores += 1

    def _acquire_core_or_abort(self):
        """Generator: wait for a core; on interruption, withdraw cleanly.

        If the waiter is interrupted while queued, its grant must be pulled
        from the wait queue (or, if the grant already fired, the core must
        be returned) — otherwise the core leaks to a dead request.
        """
        grant = self._acquire_core()
        try:
            yield grant
        except BaseException:
            if grant.triggered:
                self._release_core()
            else:
                self._waiting.remove(grant)
            raise

    # -------------------------------------------------- coalesced bookkeeping
    def _demote_inflight(self, freq_change: bool = False) -> None:
        """Reprogram every armed whole-burst timer to its next boundary.

        Boundaries up to and *including* now are committed first.  A
        demotion is triggered by an event created at the current instant
        (a core waiter's grant, a governor call); the reference timer for
        a boundary landing exactly at now was created a whole slice
        earlier, so it fires — charges, checks an as-yet-empty wait queue,
        and arms the next slice — before that triggering event.  The
        replacement timer therefore cuts at the *next* boundary, never at
        now.

        ``freq_change`` demotes cut at the end of the interval currently
        in progress — the dispatch switch or the current slice, whose
        durations the reference loop had already fixed — because every
        later slice must be re-folded at the new clock at the wake.
        """
        sim = self.sim
        now = sim._now
        candidates = []
        for burst in self._inflight:
            if burst.timer is None:
                continue  # between segments (preempt dance in progress)
            if burst.switch_end_wake:
                # Already waking at the earliest safe boundary; the wake
                # re-folds with fresh clock/queue state.
                continue
            if burst.armed_end == now:
                # The timer fires at the current instant: it *is* the
                # reference timer for this boundary, and its wake — later
                # this instant, in reference seq order — performs the
                # boundary check itself.  Reprogramming it here would skip
                # that check.
                continue
            # Inclusive commit, even when the demoting event was scheduled
            # in the past: the reference's queue join always rides a
            # same-instant hop (the mutex token, or a grant handed off
            # inside a boundary callback), so every reference timer for a
            # boundary landing exactly at now fires — charges, sees the
            # not-yet-joined queue, arms the next slice — before the join.
            burst.commit(now)
            candidates.append(burst)
        # Replacement timers must be minted in the order the reference
        # created the timers they stand in for — the start of each burst's
        # in-progress interval (burst.t after the commit above).
        # Two bursts re-armed at the same boundary instant then wake in
        # the reference's order; _inflight (dispatch) order would not.
        candidates.sort(key=lambda burst: (burst.t, burst.arm_seq))
        for burst in candidates:
            timer = burst.timer
            if freq_change and not burst.switch_done:
                boundary = burst.t + burst.switch_seconds
                switch_end = True
            elif freq_change and burst.rem > 0 and burst.t == now:
                # Governor call lands exactly on a slice boundary: the
                # next slice starts *now* at the new frequency (with the
                # stale slice size, like the reference).  Wake at the
                # current instant; the ordinary wake path re-folds so.
                boundary = now
                switch_end = False
            else:
                boundary = burst.next_boundary()
                switch_end = False
            if boundary == burst.armed_end:
                burst.switch_end_wake = switch_end
                continue  # already slice-granular
            # Take the listeners before cancelling: cancel() releases them.
            callbacks = timer.callbacks
            timer.cancel()
            replacement = AbsoluteTimeout(sim, boundary)
            burst.arm_seq = sim._seq
            replacement.callbacks = callbacks
            burst.timer = replacement
            burst.armed_end = boundary
            burst.switch_end_wake = switch_end
            proc = burst.proc
            if proc is not None and proc._target is timer:
                proc._target = replacement

    def _settle_inflight(self) -> None:
        """Accounting settle hook: charge elapsed coalesced boundaries.

        The reader is an observer (see :meth:`_Burst.commit`): a probe
        whose timeout was armed before the in-progress slice began must
        not see a boundary landing float-exactly on its own wake instant —
        the reference charges that boundary strictly after the probe.
        """
        now = self.sim._now
        observer_sched = self.sim._active_sched_time
        for burst in self._inflight:
            if burst.timer is not None:
                burst.commit(now, observer_sched=observer_sched)

    # -------------------------------------------------------------- execution
    def _execute_sliced(self, thread: Thread, cycles: float, category: str):
        """The slice-loop reference: one timer per time slice.

        The semantic reference for the coalesced fast path.  Sanitize mode
        is the only way to select it: every burst of a sanitized simulator
        runs here, and no other burst does.
        """
        if cycles < 0:
            raise SimulationError(f"negative cycle count {cycles}")
        if cycles == 0:
            return
        tracer = self.tracer
        with thread._mutex.acquire() as token:
            yield token
            remaining = float(cycles)
            # CFS wake-affinity stacking: under load, this wakeup may land
            # behind a busy core instead of finding the idle one, waiting a
            # wakeup-preemption granularity before dispatch (Section 2's
            # I/O-thread synchronization delay).
            busy = self.busy_cores
            if busy > 0 and self.costs.wakeup_stacking_delay_seconds > 0:
                probability = ((busy / self.cores)
                               ** self.costs.wakeup_stacking_exponent)
                if self._rng.random() < probability:
                    self.stacked_wakeups += 1
                    if tracer is not None and tracer.wants("sched"):
                        tracer.record(self.sim.now, "sched", "stacked",
                                      thread=thread.name, busy=busy)
                    yield self.sim.timeout(
                        self.costs.wakeup_stacking_delay_seconds)
            yield from self._acquire_core_or_abort()
            if tracer is not None and tracer.wants("sched"):
                tracer.record(self.sim.now, "sched", "dispatch",
                              thread=thread.name, cycles=cycles)
            on_core = True
            try:
                # Pay the dispatch context switch (accounted as "others").
                switch_time = self.seconds(self.costs.context_switch_cycles)
                yield self.sim.timeout(switch_time)
                self.accounting.charge(thread.name, OTHERS, switch_time)

                slice_cycles = (self.costs.time_slice_seconds
                                * self.frequency_hz)
                while remaining > 0:
                    burst = min(remaining, slice_cycles)
                    duration = self.seconds(burst)
                    yield self.sim.timeout(duration)
                    self.accounting.charge(thread.name, category, duration)
                    remaining -= burst
                    if remaining > 0 and self._waiting:
                        # Round-robin: yield the core, rejoin the queue tail.
                        if tracer is not None and tracer.wants("sched"):
                            tracer.record(self.sim.now, "sched",
                                          "preempt", thread=thread.name,
                                          remaining=remaining)
                        self._release_core()
                        on_core = False
                        yield from self._acquire_core_or_abort()
                        on_core = True
                        switch_time = self.seconds(
                            self.costs.context_switch_cycles)
                        yield self.sim.timeout(switch_time)
                        self.accounting.charge(thread.name, OTHERS, switch_time)
                        slice_cycles = (self.costs.time_slice_seconds
                                        * self.frequency_hz)
            finally:
                if on_core:
                    self._release_core()

    def _execute_fast(self, thread: Thread, cycles: float, category: str):
        """Coalesced-burst fast path: one timer per uncontended segment.

        Event-for-event equivalent to :meth:`_execute_sliced` with two
        provably invisible eliminations:

        * the zero-delay mutex-token and core-grant round-trips are skipped
          when nothing else is scheduled at the current instant (the slot
          is assigned synchronously either way; the round-trip only matters
          when another same-instant event could interleave);
        * intermediate slice-boundary wake-ups are skipped while no thread
          waits for a core — their only effects (accounting charges, the
          next private timer) are replayed exactly by the fold in
          :class:`_Burst`, and :meth:`_demote_inflight` restores per-slice
          preemption the moment a contender arrives.
        """
        if cycles < 0:
            raise SimulationError(f"negative cycle count {cycles}")
        if cycles == 0:
            return
        sim = self.sim
        heap = sim._heap
        tracer = self.tracer
        costs = self.costs
        resource = thread._mutex._resource
        token = None
        marker = None
        if not resource._users and (not heap or heap[0][0] > sim._now):
            # Mutex free and no pending entry due at this instant, so
            # provably nothing can interleave: take the slot synchronously,
            # skip the token round-trip.  The shared marker is safe: a
            # capacity-1 resource holds at most one user, so no ``_users``
            # list ever contains it twice.
            marker = _ELIDED
            resource._users.append(marker)
        else:
            token = resource.request()
        try:
            if token is not None:
                yield token
            remaining = float(cycles)
            busy = self.cores - self._free_cores
            if busy > 0 and costs.wakeup_stacking_delay_seconds > 0:
                probability = ((busy / self.cores)
                               ** costs.wakeup_stacking_exponent)
                if self._rng.random() < probability:
                    self.stacked_wakeups += 1
                    if tracer is not None and tracer.wants("sched"):
                        tracer.record(sim.now, "sched", "stacked",
                                      thread=thread.name, busy=busy)
                    yield sim.timeout(costs.wakeup_stacking_delay_seconds)
            on_core = False
            if self._free_cores > 0 and (not heap or heap[0][0] > sim._now):
                # Same elision for the grant round-trip.
                self._free_cores -= 1
                on_core = True
            else:
                yield from self._acquire_core_or_abort()
                on_core = True
            if tracer is not None and tracer.wants("sched"):
                tracer.record(sim.now, "sched", "dispatch",
                              thread=thread.name, cycles=cycles)
            burst = _Burst(self, thread.name, category, sim._active_process)
            inflight = self._inflight
            inflight.append(burst)
            try:
                freq = self.frequency_hz
                pending_switch = costs.context_switch_cycles / freq
                slice_cycles = costs.time_slice_seconds * freq
                while True:
                    now = sim._now
                    burst.t = now
                    burst.rem = remaining
                    burst.switch_seconds = pending_switch
                    # A zero-cost switch still goes through the pending
                    # state: the reference charges it unconditionally,
                    # which mints the (thread, "others") accounting key
                    # even when the value is 0.0.
                    burst.switch_done = False
                    burst.slice_cycles = slice_cycles
                    burst.frequency_hz = freq
                    if self._waiting:
                        # Born contended: arm only up to the first slice
                        # boundary, where the reference would preempt.
                        end = burst.next_boundary()
                    elif remaining <= slice_cycles:
                        # The reference fold's single iteration.
                        end = (now + pending_switch) + remaining / freq
                    else:
                        # The whole segment's end: the reference fold.
                        end = now + pending_switch
                        rem = remaining
                        while rem > 0:
                            part = rem if rem < slice_cycles else slice_cycles
                            end = end + part / freq
                            rem = rem - part
                    timer = AbsoluteTimeout(sim, end)
                    burst.timer = timer
                    burst.armed_end = end
                    burst.arm_seq = sim._seq
                    try:
                        yield timer
                    except BaseException:
                        # Interrupt mid-segment: charge elapsed boundaries
                        # (the in-flight partial slice is never charged,
                        # matching the reference) and unwind.
                        burst.timer = None
                        burst.commit(sim._now)
                        raise
                    burst.timer = None
                    burst.commit(sim._now)
                    remaining = burst.rem
                    if remaining <= 0.0:
                        break
                    if burst.switch_end_wake:
                        # Frequency-change wake at the switch end: re-fold
                        # the slices at the new clock; no preemption here
                        # (the reference only preempts at slice ends).
                        # Slice size is recomputed too — the reference
                        # computes it after the switch yield, i.e. at the
                        # already-changed frequency.
                        burst.switch_end_wake = False
                        freq = self.frequency_hz
                        pending_switch = 0.0
                        slice_cycles = costs.time_slice_seconds * freq
                        continue
                    if self._waiting:
                        # Round-robin: yield the core, rejoin the queue
                        # tail.  The reacquisition context switch merges
                        # into the next segment's fold.
                        if tracer is not None and tracer.wants("sched"):
                            tracer.record(sim.now, "sched", "preempt",
                                          thread=thread.name,
                                          remaining=remaining)
                        self._release_core()
                        on_core = False
                        yield from self._acquire_core_or_abort()
                        on_core = True
                        freq = self.frequency_hz
                        pending_switch = costs.context_switch_cycles / freq
                        slice_cycles = costs.time_slice_seconds * freq
                    else:
                        # Demoted without a contender left (frequency
                        # change or drained queue): re-coalesce the rest.
                        freq = self.frequency_hz
                        pending_switch = 0.0
            finally:
                if inflight[-1] is burst:
                    inflight.pop()
                else:
                    inflight.remove(burst)
                if on_core:
                    # Inlined _release_core.
                    waiting = self._waiting
                    if waiting:
                        waiting.popleft().succeed(None)
                    else:
                        self._free_cores += 1
        finally:
            if marker is not None:
                if resource._queue:
                    resource.release(marker)
                else:
                    resource._users.pop()
            elif token.triggered:
                resource.release(token)
            else:
                resource.cancel(token)

    def __repr__(self) -> str:
        return (f"<CpuScheduler cores={self.cores} "
                f"freq={self.frequency_hz/1e9:.1f}GHz "
                f"busy={self.busy_cores} waiting={self.runnable_waiting}>")


class _MARKER:
    """Placeholder occupying a mutex slot taken via the elided fast path."""

    __slots__ = ()


_ELIDED = _MARKER()
