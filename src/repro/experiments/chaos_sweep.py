"""Chaos sweep: resilient reads under seeded random fault storms.

Each *case* builds a fresh 3-host vRead cluster, generates a random fault
plan from the case seed, compressed to a few-millisecond horizon so the
storm breaks mid-read (:func:`repro.faults.chaos.random_plan`), arms it
under a replicated multi-block read, and verifies the data byte-for-byte.
The sweep reports per-case read latency and fault/recovery activity — the
figure is an extension (the paper has no chaos experiment), but it doubles
as the reproduction's end-to-end resilience regression and as the
parallel-runner determinism workload: cases are independent, each case's
plan seed is the runner's seed derived from ``(root seed, ("case", i))``,
so ``--jobs 1`` and ``--jobs N`` must produce identical output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.cluster import VirtualHadoopCluster
from repro.experiments.common import FigureResult
from repro.faults import VReadClientPolicy
from repro.faults.chaos import random_plan
from repro.storage.content import PatternSource


@dataclass
class ChaosCase:
    """One seeded fault storm's outcome."""
    plan_seed: int
    read_ms: float
    verified: bool
    fault_events: int
    recovery_events: int


def points(cases: int = 6, **_ignored) -> List[Tuple[str, int]]:
    """One point per case."""
    return [("case", index) for index in range(cases)]


def run_point(point: Tuple[str, int], seed: int, **params) -> ChaosCase:
    """Run one case (see :func:`run_case`); the derived seed is its plan
    seed."""
    params.pop("cases", None)  # the grid size, read by points()
    return run_case(seed, **params)


def run_case(plan_seed: int, file_bytes: int = 4 << 20,
             faults: int = 3, horizon: float = 0.002) -> ChaosCase:
    """Run one chaos case: seeded storm under a verified replicated read."""
    plan = random_plan(seed=plan_seed, faults=faults, horizon=horizon)
    cluster = VirtualHadoopCluster(n_hosts=3, block_size=1 << 20,
                                   replication=2, vread=True,
                                   seed=plan_seed, faults=plan)
    cluster.vread_manager.client_policy = VReadClientPolicy(
        open_timeout=0.05, read_timeout=0.1, reprobe_interval=0.5)
    payload = PatternSource(file_bytes, seed=plan_seed)

    def load():
        yield from cluster.write_dataset("/chaos/data", payload)

    cluster.run(cluster.sim.process(load()))
    cluster.settle()

    client = cluster.clients.get()
    cluster.faults.arm()
    start = cluster.sim.now

    def read():
        source = yield from client.read_file("/chaos/data")
        return source

    source = cluster.run(cluster.sim.process(read()))
    elapsed = cluster.sim.now - start
    verified = source.same_bytes(payload)
    case = ChaosCase(
        plan_seed=plan_seed,
        read_ms=elapsed * 1e3,
        verified=verified,
        fault_events=cluster.fault_counters.total("fault."),
        recovery_events=cluster.fault_counters.total("recovery."),
    )
    cluster.stop_background()
    return case


def assemble(results: Dict[Tuple[str, int], ChaosCase],
             file_bytes: int = 4 << 20, **_ignored) -> FigureResult:
    """Build the sweep figure from the measured cases, in case order."""
    cases = list(results.values())
    series: Dict[str, List[float]] = {
        "read ms": [round(case.read_ms, 3) for case in cases],
        "faults": [float(case.fault_events) for case in cases],
        "recoveries": [float(case.recovery_events) for case in cases],
        "verified": [1.0 if case.verified else 0.0 for case in cases],
    }
    return FigureResult(
        figure="Extension (chaos)",
        title="Verified read under seeded random fault storms",
        x_label="plan seed",
        x_values=[case.plan_seed for case in cases],
        series=series,
        unit="mixed",
        notes=f"{file_bytes >> 20}MB replicated reads, 3 hosts, "
              f"vRead with degrade+failover",
    )
