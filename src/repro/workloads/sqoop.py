"""A Sqoop-like export: HDFS table -> MySQL over the LAN (paper Table 3).

The export reads the Hive table's files from HDFS, serializes rows into
batched INSERT statements, and ships them over TCP to a MySQL server
running in a VM on another physical machine.  The MySQL side charges
parse/index/commit work per batch — the write-side bottleneck that caps
vRead's benefit at the paper's 11.3%.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.metrics.accounting import CLIENT_APPLICATION, OTHERS
from repro.net.tcp import VmNetwork

MYSQL_PORT = 3306


@dataclass
class ExportResult:
    rows: int
    batches: int
    elapsed_seconds: float


class MySqlServer:
    """A minimal MySQL model: parse + index-update + commit per batch."""

    def __init__(self, vm, network: VmNetwork,
                 insert_cycles_per_row: float = 450.0,
                 commit_cycles: float = 10_000.0,
                 commit_flush_bytes: int = 4096):
        self.vm = vm
        self.network = network
        self.insert_cycles_per_row = insert_cycles_per_row
        self.commit_cycles = commit_cycles
        self.commit_flush_bytes = commit_flush_bytes
        self.rows_inserted = 0
        vm.guest_fs.mkdir("/var/lib/mysql", parents=True)
        self._listener = network.listen(vm, MYSQL_PORT)
        vm.sim.process(self._serve())

    def _serve(self):
        while True:
            connection = yield from self._listener.accept()
            self.vm.sim.process(self._handle(connection))

    def _handle(self, connection):
        while True:
            batch = yield from connection.recv(self.vm)
            rows, nbytes = batch
            cycles = self.insert_cycles_per_row * rows + self.commit_cycles
            yield from self.vm.vcpu.run(cycles, OTHERS)
            # Redo log / binlog flush for the transaction.
            yield from self.vm.write_file("/var/lib/mysql/ibdata",
                                          b"\x00" * min(nbytes,
                                                        self.commit_flush_bytes),
                                          sync=True)
            self.rows_inserted += rows
            yield from connection.send(self.vm, ("ok", rows))


class SqoopExport:
    """sqoop-export: stream an HDFS table into MySQL."""

    def __init__(self, client, mysql: MySqlServer, network: VmNetwork,
                 batch_rows: int = 1000,
                 serialize_cycles_per_row: float = 300.0):
        self.client = client
        self.mysql = mysql
        self.network = network
        self.batch_rows = batch_rows
        self.serialize_cycles_per_row = serialize_cycles_per_row

    def export_table(self, table, request_bytes: int = 1 << 20):
        """Generator: export every row of a HiveTable; returns ExportResult."""
        sim = self.client.vm.sim
        vcpu = self.client.vm.vcpu
        connection = yield from self.network.connect(
            self.client.vm, self.mysql.vm, MYSQL_PORT)
        start = sim.now
        rows_sent = 0
        batches = 0
        pending_rows = 0
        pending_bytes = 0
        for index in range(table.n_files):
            stream = yield from self.client.open(table.file_path(index))
            while True:
                piece = yield from stream.read(request_bytes)
                if piece is None:
                    break
                rows = max(1, piece.size // table.row_bytes)
                yield from vcpu.run(rows * self.serialize_cycles_per_row,
                                    CLIENT_APPLICATION)
                pending_rows += rows
                pending_bytes += piece.size
                while pending_rows >= self.batch_rows:
                    take = self.batch_rows
                    take_bytes = take * table.row_bytes
                    batch_rows, batch_bytes = take, min(take_bytes,
                                                        pending_bytes)
                    pending_rows -= take
                    pending_bytes -= batch_bytes
                    yield from connection.send(
                        self.client.vm, (batch_rows, batch_bytes),
                        size=batch_bytes, copy_category=CLIENT_APPLICATION)
                    yield from connection.recv(self.client.vm)
                    rows_sent += batch_rows
                    batches += 1
            stream.close()
        if pending_rows:
            yield from connection.send(
                self.client.vm, (pending_rows, pending_bytes),
                size=max(1, pending_bytes), copy_category=CLIENT_APPLICATION)
            yield from connection.recv(self.client.vm)
            rows_sent += pending_rows
            batches += 1
        return ExportResult(rows_sent, batches, sim.now - start)
