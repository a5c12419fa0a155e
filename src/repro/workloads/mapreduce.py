"""A mini MapReduce engine over HDFS.

Map tasks stream their input split from HDFS (through whatever client they
are given — vanilla or vRead) and charge per-byte/per-record CPU for the
user map function; an optional reduce phase charges aggregation CPU.  This
is deliberately the smallest engine that makes the paper's application
benchmarks (TestDFSIO, HBase PerformanceEvaluation, Hive queries) *real
consumers of the HDFS data path* instead of synthetic loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.metrics.accounting import CLIENT_APPLICATION
from repro.sim import AllOf


@dataclass
class MapSpec:
    """One map task: an HDFS file (split) to consume."""
    path: str
    #: Application-buffer request size for the streaming reads.
    request_bytes: int = 1 << 20


@dataclass
class TaskResult:
    path: str
    bytes_read: int
    duration: float
    map_output: object = None


class MiniMapReduce:
    """Run map tasks with bounded slot concurrency inside one client VM."""

    def __init__(self, client, map_slots: int = 1,
                 map_cycles_per_byte: float = 0.05,
                 map_cycles_per_call: float = 20_000.0,
                 heartbeat_interval: float = 0.01,
                 heartbeat_duty: float = 0.02):
        if map_slots < 1:
            raise ValueError(f"need at least one map slot: {map_slots}")
        self.client = client
        self.map_slots = map_slots
        self.map_cycles_per_byte = map_cycles_per_byte
        self.map_cycles_per_call = map_cycles_per_call
        #: Task-tracker heartbeat / progress-reporting overhead: while a job
        #: runs, the framework burns ``heartbeat_duty`` of a core in bursts
        #: every ``heartbeat_interval`` — so a job's CPU *time* scales with
        #: its wall time, as the real TestDFSIO reports (paper Fig 12).
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_duty = heartbeat_duty

    def run(self, specs: List[MapSpec],
            mapper: Optional[Callable] = None,
            mapper_factory: Optional[Callable] = None):
        """Generator: run all map tasks; returns list of TaskResult.

        ``mapper(piece)`` is called per request-sized piece and may return a
        partial result; results are collected in task order.  For stateful
        per-task mappers (e.g. word carry across piece boundaries) pass
        ``mapper_factory(spec) -> mapper`` instead — each task gets its own
        instance, which keeps concurrent slots isolated.
        """
        if mapper is not None and mapper_factory is not None:
            raise ValueError("pass either mapper or mapper_factory, not both")
        sim = self.client.vm.sim
        results: List[Optional[TaskResult]] = [None] * len(specs)
        pending = list(enumerate(specs))
        pending.reverse()  # pop from the front

        def slot_worker():
            while pending:
                index, spec = pending.pop()
                task_mapper = (mapper_factory(spec)
                               if mapper_factory is not None else mapper)
                results[index] = yield from self._map_task(spec, task_mapper)

        job = {"running": True}

        def heartbeat():
            vcpu = self.client.vm.vcpu
            while job["running"]:
                yield sim.timeout(self.heartbeat_interval)
                if not job["running"]:
                    break
                cycles = (self.heartbeat_duty * self.heartbeat_interval
                          * self.client.vm.host.frequency_hz)
                yield from vcpu.run(cycles, CLIENT_APPLICATION)

        workers = [sim.process(slot_worker())
                   for _ in range(min(self.map_slots, len(specs)))]
        if workers:
            sim.process(heartbeat())
            try:
                yield AllOf(sim, workers)
            finally:
                job["running"] = False
        return results

    def _map_task(self, spec: MapSpec, mapper: Optional[Callable]):
        sim = self.client.vm.sim
        vcpu = self.client.vm.vcpu
        start = sim.now
        stream = yield from self.client.open(spec.path)
        bytes_read = 0
        outputs = []
        while True:
            piece = yield from stream.read(spec.request_bytes)
            if piece is None:
                break
            bytes_read += piece.size
            cycles = (self.map_cycles_per_call
                      + self.map_cycles_per_byte * piece.size)
            yield from vcpu.run(cycles, CLIENT_APPLICATION)
            if mapper is not None:
                outputs.append(mapper(piece))
        stream.close()
        return TaskResult(spec.path, bytes_read, sim.now - start,
                          map_output=outputs)
