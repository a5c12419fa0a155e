"""Firing order under cancels, against an independent oracle.

A cancelled timer leaves the heap at once (``Timeout.cancel``), and the
remaining entries must still fire in ``(when, creation order)``.  The
property draws relative and absolute timers, zero delays included, whose
times tie often, cancels some of them before they fire, after they fire and twice,
and advances the clock in bounded steps between the phases.  The oracle is
plain bookkeeping: a timer fires unless it was cancelled before its time,
and the survivors fire sorted by ``(when, creation index)``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.sim.events import AbsoluteTimeout

#: Multiples of 1/4 are exact binary floats, so equal sums tie exactly.
_DELAYS = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 2.25])

_PHASE = st.tuples(
    st.lists(st.tuples(st.booleans(), _DELAYS), max_size=12),
    st.lists(st.integers(min_value=0, max_value=1000), max_size=6),
    st.sampled_from([0.0, 0.25, 0.5, 1.0]),
)


def _assert_heap_holds_live_entries(sim):
    heap = sim._heap
    assert not any(entry[2]._cancelled for entry in heap)
    for index in range(1, len(heap)):
        assert heap[(index - 1) // 2][:2] <= heap[index][:2]


@settings(max_examples=150, deadline=None)
@given(st.lists(_PHASE, min_size=1, max_size=8))
def test_firing_order_matches_oracle_under_cancels(phases):
    sim = Simulator(sanitize=False)
    timers = []    # in creation order
    whens = []     # oracle: fire time of each timer
    cancelled = set()
    fired = []
    horizon = None  # last run(until=) bound: entries at or before it fired

    for creations, cancels, step in phases:
        now = sim.now
        for absolute, delay in creations:
            index = len(timers)
            when = now + delay
            timer = (AbsoluteTimeout(sim, when) if absolute
                     else sim.timeout(delay))
            timer.callbacks.append(lambda event, index=index: fired.append(index))
            timers.append(timer)
            whens.append(when)
        created_before_run = len(timers) - len(creations)
        for pick in cancels:
            if not timers:
                break
            index = pick % len(timers)
            already_fired = (index not in cancelled
                             and index < created_before_run
                             and horizon is not None
                             and whens[index] <= horizon)
            timers[index].cancel()
            if already_fired:
                # A late cancel is a no-op: the timer stays processed.
                assert timers[index].processed
            else:
                # A first or a repeated cancel before the timer's time.
                cancelled.add(index)
                assert not timers[index].processed
            assert timers[index]._cancelled == (index in cancelled)
            _assert_heap_holds_live_entries(sim)
        horizon = now + step
        sim.run(until=horizon)
        _assert_heap_holds_live_entries(sim)

    sim.run()
    expected = sorted((index for index in range(len(timers))
                       if index not in cancelled),
                      key=lambda index: (whens[index], index))
    assert fired == expected
    assert sim._heap == []
