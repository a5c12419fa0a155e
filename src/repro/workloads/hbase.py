"""An HBase-like store on HDFS (paper Table 2).

Rows live in immutable HFile-style region files on HDFS; a region index
maps row number -> (region file, offset).  The three PerformanceEvaluation
operations the paper measures are implemented over the HDFS client:

* ``scan`` — batched sequential preads (few per-row RPCs);
* ``sequential_read`` — one get per row in key order;
* ``random_read`` — one get per uniformly random row.

Per-operation CPU constants model the region-server work (RPC handling,
KeyValue decoding, block-index lookups).  They dilute the raw HDFS data-path
improvement differently per operation, which is exactly the effect behind
Table 2's 27.3% / 23.6% / 17.3% ordering.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.metrics.accounting import CLIENT_APPLICATION
from repro.storage.content import PatternSource


@dataclass
class HBaseOpResult:
    operation: str
    rows: int
    bytes_read: int
    elapsed_seconds: float

    @property
    def throughput_mbps(self) -> float:
        return self.bytes_read / 1e6 / self.elapsed_seconds


class HBaseTable:
    """A fixed-row-width table split into HFile regions on HDFS."""

    def __init__(self, client, name: str = "TestTable",
                 row_bytes: int = 1024, rows_per_region: int = 65_536,
                 scan_cycles_per_row: float = 2_500.0,
                 get_cycles_per_row: float = 420_000.0,
                 random_get_cycles_per_row: float = 800_000.0,
                 seed: int = 7):
        self.client = client
        self.name = name
        self.row_bytes = row_bytes
        self.rows_per_region = rows_per_region
        self.scan_cycles_per_row = scan_cycles_per_row
        self.get_cycles_per_row = get_cycles_per_row
        self.random_get_cycles_per_row = random_get_cycles_per_row
        self.seed = seed
        self.n_rows = 0
        self._streams: dict = {}

    # ----------------------------------------------------------------- layout
    def region_path(self, region: int) -> str:
        return f"/hbase/{self.name}/region-{region:05d}/hfile"

    @property
    def n_regions(self) -> int:
        return -(-self.n_rows // self.rows_per_region) if self.n_rows else 0

    def _locate(self, row: int):
        region = row // self.rows_per_region
        offset = (row % self.rows_per_region) * self.row_bytes
        return region, offset

    # ------------------------------------------------------------------- load
    def load(self, n_rows: int, spread: bool = True):
        """Generator: SequentialWrite — populate the table's region files."""
        if n_rows <= 0:
            raise ValueError(f"row count must be positive: {n_rows}")
        self.n_rows = n_rows
        for region in range(self.n_regions):
            rows_here = min(self.rows_per_region,
                            n_rows - region * self.rows_per_region)
            payload = PatternSource(rows_here * self.row_bytes,
                                    seed=self.seed + region)
            yield from self.client.write_file(
                self.region_path(region), payload, spread=spread)

    # ---------------------------------------------------------------- streams
    def _stream(self, region: int):
        stream = self._streams.get(region)
        if stream is None:
            stream = yield from self.client.open(self.region_path(region))
            self._streams[region] = stream
        return stream

    def close(self) -> None:
        for stream in self._streams.values():
            stream.close()
        self._streams.clear()

    # ------------------------------------------------------------------- scan
    def scan(self, n_rows: Optional[int] = None, batch_rows: int = 1024):
        """Generator: scan rows in key order with batched preads."""
        n_rows = n_rows if n_rows is not None else self.n_rows
        sim = self.client.vm.sim
        vcpu = self.client.vm.vcpu
        start = sim.now
        done = 0
        bytes_read = 0
        while done < n_rows:
            region, offset = self._locate(done)
            rows_in_region = min(
                n_rows - done,
                self.rows_per_region - (done % self.rows_per_region))
            batch = min(batch_rows, rows_in_region)
            stream = yield from self._stream(region)
            piece = yield from stream.pread(offset, batch * self.row_bytes)
            bytes_read += piece.size
            yield from vcpu.run(self.scan_cycles_per_row * batch,
                                CLIENT_APPLICATION)
            done += batch
        return HBaseOpResult("scan", n_rows, bytes_read, sim.now - start)

    # ------------------------------------------------------------------- gets
    def _get(self, row: int, cycles_per_row: float):
        region, offset = self._locate(row)
        stream = yield from self._stream(region)
        piece = yield from stream.pread(offset, self.row_bytes)
        yield from self.client.vm.vcpu.run(cycles_per_row, CLIENT_APPLICATION)
        return piece.size

    def sequential_read(self, n_rows: Optional[int] = None):
        """Generator: one get per row, in key order."""
        n_rows = n_rows if n_rows is not None else self.n_rows
        sim = self.client.vm.sim
        start = sim.now
        bytes_read = 0
        for row in range(n_rows):
            bytes_read += yield from self._get(row, self.get_cycles_per_row)
        return HBaseOpResult("sequential-read", n_rows, bytes_read,
                             sim.now - start)

    def random_read(self, n_rows: int, rng: Optional[random.Random] = None):
        """Generator: gets of uniformly random rows."""
        if self.n_rows == 0:
            raise ValueError("table is empty")
        rng = rng or random.Random(self.seed)
        sim = self.client.vm.sim
        start = sim.now
        bytes_read = 0
        for _ in range(n_rows):
            row = rng.randrange(self.n_rows)
            bytes_read += yield from self._get(
                row, self.random_get_cycles_per_row)
        return HBaseOpResult("random-read", n_rows, bytes_read,
                             sim.now - start)
