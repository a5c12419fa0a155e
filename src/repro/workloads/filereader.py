"""The "simple Java application" of the delay microbenchmarks (Figs 2, 9).

Reads a file either from the VM's local filesystem (the baseline in Fig 2)
or from HDFS (vanilla or vRead client), with a configurable request size,
timing every request.  The figures plot the mean per-request delay, so the
benchmark keeps just a request count and a running total.
"""

from __future__ import annotations

from repro.metrics.accounting import CLIENT_APPLICATION
from repro.metrics.sinks import EmptyMetricError


class FileReadBenchmark:
    """Per-request read-delay measurement over local-FS or HDFS files."""

    def __init__(self, request_bytes: int):
        if request_bytes <= 0:
            raise ValueError(f"request size must be positive: {request_bytes}")
        self.request_bytes = request_bytes
        self.count = 0
        self.total_delay = 0.0

    def _record(self, delay: float) -> None:
        self.count += 1
        self.total_delay += delay

    # -------------------------------------------------------------- local FS
    def read_local(self, vm, path: str):
        """Generator: read ``path`` from the VM's own filesystem.

        The baseline of Figure 2: only the disk->guest-kernel and
        kernel->application copies are involved.  Returns the mean delay.
        """
        sim = vm.sim
        size = vm.guest_fs.size(path)
        offset = 0
        while offset < size:
            length = min(self.request_bytes, size - offset)
            start = sim.now
            yield from vm.read_file(path, offset, length,
                                    copy_category=CLIENT_APPLICATION)
            self._record(sim.now - start)
            offset += length
        return self.mean_delay

    # ------------------------------------------------------------------ HDFS
    def read_hdfs(self, client, path: str):
        """Generator: read ``path`` through an HDFS client (vanilla/vRead).

        Returns the mean delay.
        """
        sim = client.vm.sim
        stream = yield from client.open(path)
        while True:
            start = sim.now
            piece = yield from stream.read(self.request_bytes)
            if piece is None:
                break
            self._record(sim.now - start)
        stream.close()
        return self.mean_delay

    @property
    def mean_delay(self) -> float:
        """Mean per-request delay in seconds."""
        if not self.count:
            raise EmptyMetricError("FileReadBenchmark.mean_delay")
        return self.total_delay / self.count

    def __repr__(self) -> str:
        return (f"<FileReadBenchmark req={self.request_bytes}B "
                f"n={self.count}>")
