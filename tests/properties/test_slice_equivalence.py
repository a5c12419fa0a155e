"""Coalesced-burst scheduling must be indistinguishable from the reference.

The fast path (whole-burst timers, lazy accounting folds, ceremony elision)
and the slice-loop reference are run on the same randomized scenario —
staggered bursts over shared cores, mid-burst interrupts and mid-run
accounting probes, at one of the paper's three clocks — and must agree
*exactly* (float-equal, not approximately) on:

* final simulated time and per-burst completion/interruption times,
* the full accounting snapshot and the category roll-up,
* every probe's mid-run reading (this exercises the settle hook),
* the scheduler trace (dispatch/preempt/stacked events) and the
  stacked-wakeup counter (this exercises RNG-draw equivalence).

Probe and interrupt instants carry an off-grid offset so they never
land float-exactly on a slice-fold boundary: at an exact tie the two
implementations may order an unrelated reader against the boundary charge
differently (see the tie caveat in ``hostmodel/cpu.py``); real experiments
measure over windows, not at adversarially exact instants.

Sanitize mode is the one switch that selects the reference: the reference
run builds ``Simulator(sanitize=True)`` and the fast run
``Simulator(sanitize=False)``, whatever ``REPRO_SANITIZE`` says.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.hostmodel.costs import CostModel
from repro.hostmodel.cpu import CpuScheduler
from repro.hostmodel.frequency import PAPER_FREQUENCIES
from repro.metrics.accounting import CpuAccounting
from repro.metrics.tracing import Tracer
from repro.sim import Interrupt, Simulator

# Short slices (100us = 160k-320k cycles) so generated bursts span
# multiple slices and the coalescing logic is actually exercised.
COSTS = CostModel().with_overrides(time_slice_seconds=1e-4)

#: Off-grid skew keeping probes/interrupts off exact fold boundaries.
SKEW = 3.7e-10

bursts_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3),      # thread index
              st.integers(min_value=0, max_value=1500),   # start delay (us)
              st.integers(min_value=1, max_value=2_000_000),  # cycles
              st.sampled_from(["work", "io"])),
    min_size=1, max_size=6)


def _run_scenario(sanitize, cores, n_threads, bursts, probe_times_us,
                  interrupts, frequency_hz):
    sim = Simulator(sanitize=sanitize)
    assert (sim.sanitizer is not None) == sanitize
    acct = CpuAccounting()
    sched = CpuScheduler(sim, cores, frequency_hz, acct, COSTS, name="equiv")
    tracer = Tracer()
    sched.tracer = tracer
    threads = [sched.thread(f"t{i}") for i in range(n_threads)]
    completions = []
    probes = []
    procs = []

    for index, (t_index, delay_us, cycles, category) in enumerate(bursts):
        def worker(index=index, t_index=t_index, delay_us=delay_us,
                   cycles=cycles, category=category):
            try:
                yield sim.timeout(delay_us * 1e-6)
                yield from threads[t_index % n_threads].run(
                    cycles, category)
                completions.append((index, "done", sim.now))
            except Interrupt:
                completions.append((index, "interrupted", sim.now))
        procs.append(sim.process(worker()))

    for at_us in probe_times_us:
        def probe(at_us=at_us):
            yield sim.timeout(at_us * 1e-6 + SKEW)
            probes.append((sim.now, acct.total(),
                           tuple(sorted(acct.snapshot().items())),
                           tuple(sorted(acct.by_category().items()))))
        sim.process(probe())

    # Dedupe same-victim same-instant interrupts: delivering a second
    # interrupt to a process that finished handling the first at the
    # same instant is kernel misuse (it crashes both implementations).
    for victim, at_us in {(victim % len(procs), at_us)
                          for victim, at_us in interrupts}:
        def sniper(victim=victim, at_us=at_us):
            yield sim.timeout(at_us * 1e-6 + SKEW)
            target = procs[victim]
            if target.is_alive:
                target.interrupt("equivalence-test")
        sim.process(sniper())

    sim.run()
    trace = tuple((event.time, event.category, event.name, event.fields)
                  for event in tracer.events())
    return (sim.now,
            tuple(sorted(acct.snapshot().items())),
            tuple(sorted(completions)),
            tuple(probes),
            trace,
            sched.stacked_wakeups)


@given(cores=st.integers(min_value=1, max_value=2),
       n_threads=st.integers(min_value=1, max_value=4),
       bursts=bursts_strategy,
       probe_times_us=st.lists(st.integers(min_value=1, max_value=3000),
                               max_size=3),
       interrupts=st.lists(
           st.tuples(st.integers(min_value=0, max_value=5),
                     st.integers(min_value=1, max_value=2500)),
           max_size=2),
       frequency_hz=st.sampled_from(PAPER_FREQUENCIES))
# Regression: an accounting probe armed at t=0 landing float-exactly on a
# slice-fold boundary must not see that boundary charged — the reference
# fires the lower-seq probe before the slice timer (fixed via the kernel's
# schedule-time tracking and _Burst.commit's observer_sched rule).
@example(cores=1, n_threads=1,
         bursts=[(0, 0, 548001, "work"), (0, 0, 200000, "work")],
         probe_times_us=[382], interrupts=[(0, 278)], frequency_hz=2.0e9)
@settings(max_examples=40, deadline=None)
def test_fast_path_equivalent_to_slice_loop(cores, n_threads, bursts,
                                            probe_times_us, interrupts,
                                            frequency_hz):
    reference = _run_scenario(True, cores, n_threads, bursts,
                              probe_times_us, interrupts, frequency_hz)
    fast = _run_scenario(False, cores, n_threads, bursts,
                         probe_times_us, interrupts, frequency_hz)
    assert fast == reference
