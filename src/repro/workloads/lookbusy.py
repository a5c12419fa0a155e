"""lookbusy: a fixed-utilization CPU load generator.

The paper runs ``lookbusy 85%`` in background VMs to create the CPU
contention that delays VM/I/O-thread synchronization (Figs 3 and 9-12).
Each period the hog burns ``utilization x period`` of CPU on its VM's vCPU
and sleeps the rest.
"""

from __future__ import annotations


class Lookbusy:
    """An 85%-style CPU hog pinned to one VM."""

    CATEGORY = "lookbusy"

    def __init__(self, vm, utilization: float = 0.85,
                 period_seconds: float = 0.01):
        if not 0 < utilization <= 1:
            raise ValueError(f"utilization must be in (0, 1]: {utilization}")
        if period_seconds <= 0:
            raise ValueError(f"period must be positive: {period_seconds}")
        self.vm = vm
        self.utilization = utilization
        self.period_seconds = period_seconds
        self.stopped = False
        self.process = vm.sim.process(self._run())

    def _run(self):
        sim = self.vm.sim
        while not self.stopped:
            # Burn utilization*period worth of *cycles at the current clock*;
            # under contention the busy phase stretches, like real lookbusy
            # competing for the CPU.
            busy_cycles = (self.utilization * self.period_seconds
                           * self.vm.host.frequency_hz)
            yield from self.vm.vcpu.run(busy_cycles, self.CATEGORY)
            idle = (1 - self.utilization) * self.period_seconds
            if idle > 0:
                yield sim.timeout(idle)

    def stop(self) -> None:
        """Stop after the current period (lets ``sim.run()`` terminate)."""
        self.stopped = True

    def __repr__(self) -> str:
        return (f"<Lookbusy {self.utilization:.0%} on {self.vm.name} "
                f"{'stopped' if self.stopped else 'running'}>")
