"""A cancelled timer pins nothing.

Deadline timers (``call_with_deadline``) are cancelled when the guarded
operation wins the race.  Cancelling withdraws the timer's heap entry and
releases its callbacks at once, so nothing keeps the finished race alive:
the ``AnyOf``, the sub-process, its frames and its result.  The CPU
scheduler's demotion cancels a whole-burst timer too, and must move the
listeners to the replacement before it does; that run is checked against
the sliced reference, which ``Simulator(sanitize=True)`` selects.  A
finished burst must not pin its process either.
"""

import gc
import tracemalloc
import weakref

from repro.faults.retry import call_with_deadline
from repro.hostmodel.costs import CostModel
from repro.hostmodel.cpu import CpuScheduler
from repro.metrics.accounting import CpuAccounting
from repro.sim import Simulator
from repro.sim.events import Timeout


class _Result:
    """A weak-referenceable operation result."""


def test_cancelled_deadline_timer_pins_no_finished_subprocess():
    sim = Simulator(sanitize=False)
    # Process is slotted without __weakref__: watch what only the finished
    # sub-process holds, its generator and its result.
    refs = []

    def quick_op():
        yield sim.timeout(1e-3)
        return _Result()

    def caller():
        operation = quick_op()
        refs.append(weakref.ref(operation))
        result = yield from call_with_deadline(sim, operation, 30.0)
        refs.append(weakref.ref(result))

    sim.run_until_complete(sim.process(caller()))
    # The won race cancelled its 30 s deadline timer, which left the heap
    # at once: no timer is pending, and only the caller's own completion
    # is still queued.
    assert sim.cancelled_discarded == 1
    assert not any(isinstance(entry[2], Timeout) for entry in sim._heap)
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_sequential_deadline_ops_do_not_accumulate_results():
    sim = Simulator(sanitize=False)

    def op():
        yield sim.timeout(1e-3)
        return bytearray(64 * 1024)

    def caller():
        # 2,000 ops take 2 simulated seconds, far inside each op's 30 s
        # deadline: every race is won and its timer cancelled.
        for _ in range(2000):
            yield from call_with_deadline(sim, op(), 30.0)

    tracemalloc.start()
    try:
        sim.run_until_complete(sim.process(caller()))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Results pinned by their deadline timers would hold up to 2,000 x
    # 64 KiB = 125 MiB.
    assert peak < 4 * 1024 * 1024
    assert sim.cancelled_discarded == 2000
    assert not any(isinstance(entry[2], Timeout) for entry in sim._heap)


def test_cancelling_a_fired_timeout_is_a_no_op():
    sim = Simulator(sanitize=False)
    timer = sim.timeout(1.0)
    sim.run()
    assert timer.processed
    # A late cancel (the deadline fired before the guarded op finished)
    # must neither make the timer read as pending again nor withdraw an
    # entry that is no longer on the heap.
    later = sim.timeout(1.0)
    timer.cancel()
    assert timer.processed
    assert not timer._cancelled
    assert sim.cancelled_discarded == 0
    assert [entry[2] for entry in sim._heap] == [later]


def _demoted_burst_run(sanitize):
    """One core: a 10-slice burst on thread ``a``, contended mid-flight by
    a burst on thread ``b``; returns finish times, accounting and the
    whole-burst timer the contender found armed.  ``sanitize=True`` runs
    the sliced reference, which arms no whole-burst timer."""
    costs = CostModel().with_overrides(context_switch_cycles=0.0,
                                       wakeup_stacking_delay_seconds=0.0,
                                       time_slice_seconds=1e-4)
    sim = Simulator(sanitize=sanitize)
    assert (sim.sanitizer is not None) == sanitize
    acct = CpuAccounting()
    sched = CpuScheduler(sim, 1, 1e9, acct, costs)
    a, b = sched.thread("a"), sched.thread("b")
    done = {}
    armed = []

    def long_burst():
        yield from a.run(1_000_000, "work")
        done["a"] = sim.now

    def contender():
        yield sim.timeout(2.5e-4)
        armed.extend(burst.timer for burst in sched._inflight)
        yield from b.run(300_000, "work")
        done["b"] = sim.now

    sim.process(long_burst())
    sim.process(contender())
    sim.run()
    return done, acct.snapshot(), armed


def test_demoted_burst_timer_releases_callbacks_and_owner_resumes():
    done, snapshot, armed = _demoted_burst_run(sanitize=False)
    ref_done, ref_snapshot, _ = _demoted_burst_run(sanitize=True)
    # The owning process still resumes, on the reference's clock and with
    # the reference's charges.
    assert set(done) == {"a", "b"}
    assert done == ref_done
    assert snapshot == ref_snapshot
    # The contender demoted the whole-burst timer: it is cancelled, holds
    # no callbacks, and does not read as processed.
    (timer,) = armed
    assert timer._cancelled
    assert timer.callbacks == []
    assert not timer.processed


def test_finished_burst_pins_no_process():
    sim = Simulator(sanitize=False)
    sched = CpuScheduler(sim, 1, 1e9, CpuAccounting(), CostModel())
    thread = sched.thread("t")
    refs = []

    def worker():
        yield from thread.run(2_500_000, "work")  # several slices

    generator = worker()
    refs.append(weakref.ref(generator))
    sim.process(generator)
    del generator
    sim.run()
    # The scheduler keeps no state of the finished burst: nothing in
    # flight, and the burst's process and generator can be collected.
    assert sched._inflight == []
    gc.collect()
    assert refs[0]() is None
