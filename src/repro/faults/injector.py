"""Deterministic, sim-clock-scheduled execution of a :class:`FaultPlan`.

The injector binds a plan to a live cluster.  Nothing happens until
:meth:`FaultInjector.arm` is called — all ``.at(t, ...)`` offsets are
relative to the arm instant, so cluster construction, dataset writes and
``settle()`` can advance the clock freely without faults firing early.

Each fault runs as its own simulation process; injections and reverts are
counted into the cluster's :class:`~repro.metrics.accounting.FaultCounters`
(and thus traced, when a tracer is attached) as ``fault.<label>`` events.
"""

from __future__ import annotations

from typing import List, Optional

from repro.faults.plan import FaultPlan
from repro.metrics.accounting import FaultCounters


class FaultInjector:
    """Executes a :class:`FaultPlan` against a cluster."""

    def __init__(self, cluster, plan: Optional[FaultPlan] = None,
                 counters: Optional[FaultCounters] = None):
        self.cluster = cluster
        self.plan = plan or FaultPlan()
        self.counters = (counters if counters is not None
                         else getattr(cluster, "fault_counters", None)
                         or FaultCounters())
        self.armed_at: Optional[float] = None
        self.injected = 0
        self._processes: List = []

    @property
    def armed(self) -> bool:
        return self.armed_at is not None

    def arm(self) -> "FaultInjector":
        """Schedule every timed fault, offsets measured from *now*.

        Arming twice is an error — a plan describes one run.
        """
        if self.armed:
            raise RuntimeError(
                f"injector already armed at t={self.armed_at}")
        sim = self.cluster.sim
        self.armed_at = sim.now
        for entry in self.plan.timed:
            self._processes.append(
                sim.process(self._run_timed(entry.at, entry.fault)))
        return self

    def _run_timed(self, delay: float, fault):
        if delay > 0:
            yield self.cluster.sim.timeout(delay)
        self.injected += 1
        self.counters.count(f"fault.{fault.label}", what=fault.describe(),
                            at=self.cluster.sim.now)
        yield from fault.inject(self.cluster, self.counters)

    def pending(self) -> int:
        """Fault processes still applying/holding their fault."""
        return sum(1 for p in self._processes if p.is_alive)

    def __repr__(self) -> str:
        state = (f"armed at t={self.armed_at}" if self.armed else "unarmed")
        return (f"<FaultInjector {state} plan={len(self.plan)} "
                f"injected={self.injected}>")
