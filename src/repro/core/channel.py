"""The guest<->daemon communication channel (ivshmem ring + eventfds).

Each client VM gets one channel: a request ring, a response ring (the POSIX
SHM object exposed to the guest as a virtual PCI device), and a pair of
eventfds.  The guest-side driver translates daemon eventfd signals into
virtual interrupts (``virq_cycles`` on the vCPU); the daemon reads its
eventfd directly (paper Section 3.3).

Responses larger than ``chunk_bytes`` stream through the ring in chunks so
a 4 MB application request cannot exceed the ring's 1024 x 4 KiB capacity;
both sides derive the chunk count deterministically from the request.

Conversations carry an *epoch*.  When the guest abandons a conversation
(deadline expiry — see :mod:`repro.faults.retry`) it bumps the epoch via
:meth:`VReadChannel.abort_conversation`; responses the daemon later emits
for the dead conversation are tagged with the old epoch and silently
discarded by the next reader, so a timed-out request cannot corrupt a
subsequent one.  :meth:`VReadChannel.reset` rebuilds the rings and
doorbells outright — used when the daemon itself is restarted after a
crash.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.hostmodel.costs import CostModel
from repro.metrics.accounting import COPY_VREAD_BUFFER, OTHERS
from repro.sim import Lock, Simulator
from repro.virt.eventfd import EventFd
from repro.virt.ivshmem import SharedRing

#: Response streaming granularity through the ring.
DEFAULT_CHUNK_BYTES = 1 << 20


@dataclass
class ChannelRequest:
    """A request placed in the shared ring by the guest driver."""
    kind: str                 # 'open' | 'read' | 'update'
    block_name: str
    datanode_id: str
    offset: int = 0
    length: int = 0
    extra: Any = None


@dataclass
class OpenResult:
    """Daemon -> guest reply to an 'open' request."""
    ok: bool
    size: int = 0
    message: str = ""


class VReadChannel:
    """One client VM's shared-memory channel to its vRead daemon."""

    def __init__(self, sim: Simulator, vm, costs: Optional[CostModel] = None,
                 slots: int = 1024, slot_bytes: int = 4096,
                 chunk_bytes: int = DEFAULT_CHUNK_BYTES):
        self.sim = sim
        self.vm = vm
        self.costs = costs or vm.costs
        # A response chunk can never exceed the ring itself.
        self.chunk_bytes = min(chunk_bytes, slots * slot_bytes)
        self._slots = slots
        self._slot_bytes = slot_bytes
        #: Conversation epoch — bumped by :meth:`abort_conversation`.
        self.epoch = 0
        #: Epoch of the request the daemon is currently serving
        #: (conversations are serialized, so a single slot suffices).
        self._serving_epoch = 0
        self.stale_responses_dropped = 0
        self.resets = 0
        #: Serializes request/response conversations from concurrent streams
        #: in the same guest (one conversation owns the rings at a time).
        self._conversation = Lock(sim)
        self._build_shared_state()

    def _build_shared_state(self) -> None:
        sim, vm = self.sim, self.vm
        self.request_ring = SharedRing(sim, slots=64,
                                       slot_bytes=self._slot_bytes,
                                       name=f"{vm.name}.vread-req")
        self.response_ring = SharedRing(sim, slots=self._slots,
                                        slot_bytes=self._slot_bytes,
                                        name=f"{vm.name}.vread-resp")
        #: guest -> daemon doorbell.
        self.daemon_efd = EventFd(sim, name=f"{vm.name}.efd-daemon")
        #: daemon -> guest doorbell (translated to a virq by the driver).
        self.guest_efd = EventFd(sim, name=f"{vm.name}.efd-guest")

    # -------------------------------------------------------------- guest side
    def conversation(self):
        """The conversation lock's request — a context manager::

            with channel.conversation() as token:
                yield token
                ...

        The ``with`` form releases on every exit path, including a deadline
        interrupt delivered mid-conversation.
        """
        return self._conversation.acquire()

    def acquire(self):
        """Generator: begin a conversation (returns the lock token).

        Prefer :meth:`conversation` with a ``with`` block — this manual form
        is not interrupt-safe.
        """
        token = yield self._conversation.acquire()
        return token

    def release(self, token) -> None:
        self._conversation.release(token)

    def abort_conversation(self) -> None:
        """Abandon the current conversation after a timeout.

        Bumps the epoch so late responses are recognizably stale, flushes
        already-written stale responses (and their doorbell signals), and
        prunes waiters orphaned by the interrupt so they cannot swallow the
        next conversation's messages.
        """
        self.epoch += 1
        current = self.epoch
        self.guest_efd.prune_cancelled()
        self.request_ring.prune_cancelled()
        self.response_ring.prune_cancelled()
        dropped = self.response_ring.discard_ready(
            lambda tagged: tagged[0] != current)
        for _ in range(dropped):
            self.guest_efd.try_consume()
        self.stale_responses_dropped += dropped

    def reset(self) -> None:
        """Rebuild rings and doorbells (daemon restart after a crash).

        In-flight state of the crashed daemon — half-written responses,
        pending doorbells — is gone, exactly like a fresh SHM mapping.
        """
        self.epoch += 1
        self._serving_epoch = self.epoch
        self.resets += 1
        self._build_shared_state()

    def guest_send_request(self, request: ChannelRequest):
        """Generator (guest driver): place a request and ring the doorbell."""
        yield from self.request_ring.put((self.epoch, request), 64)
        yield from self.vm.vcpu.run(self.costs.eventfd_cycles, OTHERS)
        self.daemon_efd.signal()

    def guest_wait_response(self, copy_category: str = COPY_VREAD_BUFFER):
        """Generator (guest driver): wait for one response item.

        Pays the virq translation on the vCPU plus the ring -> application
        copy for data payloads.  Responses tagged with a stale epoch (from a
        conversation the guest abandoned) are dropped and the wait resumes.
        Returns ``(payload, nbytes)``.
        """
        while True:
            yield from self.guest_efd.wait()
            yield from self.vm.vcpu.run(self.costs.virq_cycles, OTHERS)
            tagged, nbytes = yield from self.response_ring.get()
            epoch, payload = tagged
            if epoch != self.epoch:
                self.stale_responses_dropped += 1
                continue
            if nbytes:
                copy_cycles = (self.costs.vread_guest_copy_cycles_per_byte
                               * nbytes)
                yield from self.vm.vcpu.run(copy_cycles, copy_category)
            return payload, nbytes

    # ------------------------------------------------------------- daemon side
    def daemon_wait_request(self, daemon_thread):
        """Generator (daemon): block for the next request."""
        yield from self.daemon_efd.wait()
        (epoch, request), _ = yield from self.request_ring.get()
        self._serving_epoch = epoch
        yield from daemon_thread.run(self.costs.vread_request_cycles, OTHERS)
        return request

    def daemon_send_response(self, daemon_thread, payload: Any, nbytes: int,
                             copy_category: str = COPY_VREAD_BUFFER):
        """Generator (daemon): copy a response into the ring + doorbell.

        Responses carry the epoch of the request being served, so the guest
        can discard replies to conversations it has abandoned.
        """
        if nbytes:
            copy_cycles = self.costs.vread_copy_cycles_per_byte * nbytes
            yield from daemon_thread.run(copy_cycles, copy_category)
        yield from self.response_ring.put((self._serving_epoch, payload),
                                          nbytes)
        yield from daemon_thread.run(self.costs.eventfd_cycles, OTHERS)
        self.guest_efd.signal()

    # ----------------------------------------------------------------- chunks
    def chunk_count(self, length: int) -> int:
        """Number of response chunks for a read of ``length`` bytes."""
        if length <= 0:
            return 1
        return -(-length // self.chunk_bytes)

    def __repr__(self) -> str:
        return f"<VReadChannel {self.vm.name}>"
