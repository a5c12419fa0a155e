"""A Hive-like warehouse: tables as delimited rows on HDFS (paper Table 3).

The paper's query (``select * from test where id >= x and id <= y``) is a
predicate scan over a 30M-row user table.  Here a table is a set of HDFS
files of fixed-width rows; a query runs as map tasks that stream the files
and evaluate the predicate per row, charging deserialization + predicate
CPU — the dilution that turns the raw HDFS gain into Table 3's 21.3%.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.metrics.accounting import CLIENT_APPLICATION
from repro.storage.content import PatternSource


@dataclass
class QueryResult:
    matched_rows: int
    scanned_rows: int
    elapsed_seconds: float


class HiveTable:
    """A Hive managed table of fixed-width rows stored in HDFS files."""

    def __init__(self, client, name: str = "test", row_bytes: int = 128,
                 rows_per_file: int = 262_144,
                 deserialize_cycles_per_row: float = 300.0,
                 predicate_cycles_per_row: float = 100.0, seed: int = 21):
        self.client = client
        self.name = name
        self.row_bytes = row_bytes
        self.rows_per_file = rows_per_file
        self.deserialize_cycles_per_row = deserialize_cycles_per_row
        self.predicate_cycles_per_row = predicate_cycles_per_row
        self.seed = seed
        self.n_rows = 0

    def file_path(self, index: int) -> str:
        return f"/user/hive/warehouse/{self.name}/part-{index:05d}"

    @property
    def n_files(self) -> int:
        return -(-self.n_rows // self.rows_per_file) if self.n_rows else 0

    # ------------------------------------------------------------------- load
    def load(self, n_rows: int, spread: bool = True):
        """Generator: LOAD DATA — populate the table files."""
        if n_rows <= 0:
            raise ValueError(f"row count must be positive: {n_rows}")
        self.n_rows = n_rows
        for index in range(self.n_files):
            rows_here = min(self.rows_per_file,
                            n_rows - index * self.rows_per_file)
            payload = PatternSource(rows_here * self.row_bytes,
                                    seed=self.seed + index)
            yield from self.client.write_file(self.file_path(index), payload,
                                              spread=spread)

    # ------------------------------------------------------------------ query
    def select_where_id_between(self, low: int, high: int,
                                request_bytes: int = 1 << 20):
        """Generator: the paper's range query; returns a QueryResult.

        Row ids are the row ordinals, so the predicate's selectivity is
        exact; every row is still scanned (no indexes in Hive-on-MR).
        """
        sim = self.client.vm.sim
        vcpu = self.client.vm.vcpu
        start = sim.now
        scanned = 0
        matched = 0
        for index in range(self.n_files):
            stream = yield from self.client.open(self.file_path(index))
            while True:
                piece = yield from stream.read(request_bytes)
                if piece is None:
                    break
                rows = max(1, piece.size // self.row_bytes)
                first_row = scanned
                scanned += rows
                lo = max(low, first_row)
                hi = min(high, first_row + rows - 1)
                if hi >= lo:
                    matched += hi - lo + 1
                cycles = rows * (self.deserialize_cycles_per_row
                                 + self.predicate_cycles_per_row)
                yield from vcpu.run(cycles, CLIENT_APPLICATION)
            stream.close()
        return QueryResult(matched, scanned, sim.now - start)
