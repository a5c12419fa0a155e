"""netperf TCP_RR: request/response transactions between two VMs.

Reproduces the paper's Figure 3 microbenchmark: a netperf server and client
in two co-located VMs; the transaction rate collapses when extra
CPU-loaded VMs keep the vCPU and vhost threads from finding free cores.
"""

from __future__ import annotations

from typing import Optional

from repro.net.tcp import VmNetwork

NETPERF_PORT = 12865


class NetperfRR:
    """A TCP_RR run: fixed-size request, fixed-size response, in a loop."""

    def __init__(self, network: VmNetwork, client_vm, server_vm,
                 request_bytes: int, response_bytes: Optional[int] = None):
        if request_bytes <= 0:
            raise ValueError(f"request size must be positive: {request_bytes}")
        self.network = network
        self.client_vm = client_vm
        self.server_vm = server_vm
        self.request_bytes = request_bytes
        self.response_bytes = (response_bytes if response_bytes is not None
                               else request_bytes)
        self.transactions = 0

    def run(self, duration: float):
        """Generator: run transactions for ``duration``; returns rate/sec."""
        sim = self.client_vm.sim
        listener = self.network.listen(self.server_vm, NETPERF_PORT)

        def server():
            connection = yield from listener.accept()
            while True:
                yield from connection.recv(self.server_vm)
                yield from connection.send(self.server_vm, b"",
                                           size=self.response_bytes)

        sim.process(server())
        connection = yield from self.network.connect(
            self.client_vm, self.server_vm, NETPERF_PORT)
        start = sim.now
        deadline = start + duration
        while sim.now < deadline:
            yield from connection.send(self.client_vm, b"",
                                       size=self.request_bytes)
            yield from connection.recv(self.client_vm)
            self.transactions += 1
        elapsed = sim.now - start
        return self.transactions / elapsed

    def __repr__(self) -> str:
        return (f"<NetperfRR {self.client_vm.name}->{self.server_vm.name} "
                f"req={self.request_bytes}B tx={self.transactions}>")
