"""Discrete-event simulation kernel.

A small, self-contained, generator-based discrete-event simulator in the
style of SimPy.  Simulation *processes* are Python generators that ``yield``
:class:`~repro.sim.events.Event` objects to suspend until those events fire.
The kernel is fully deterministic: events scheduled at equal times are
processed in scheduling order, and all randomness flows through seeded
:class:`~repro.sim.rng.RandomStreams`.

Quick example::

    from repro.sim import Simulator

    sim = Simulator()

    def hello():
        yield sim.timeout(1.5)
        return "done at t=1.5"

    proc = sim.process(hello())
    sim.run()
    assert sim.now == 1.5 and proc.value == "done at t=1.5"
"""

from repro.sim.events import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    SanitizerError,
    SimulationError,
    Timeout,
)
from repro.sim.kernel import Simulator, kernel_stats, reset_kernel_stats
from repro.sim.process import Process
from repro.sim.resources import (
    Container,
    Lock,
    Request,
    Resource,
    Store,
)
from repro.sim.rng import RandomStreams
from repro.sim.sanitizer import Sanitizer

__all__ = [
    "AllOf",
    "AnyOf",
    "Container",
    "Event",
    "Interrupt",
    "Lock",
    "Process",
    "RandomStreams",
    "Request",
    "Resource",
    "Sanitizer",
    "SanitizerError",
    "SimulationError",
    "Simulator",
    "kernel_stats",
    "reset_kernel_stats",
    "Store",
    "Timeout",
]
