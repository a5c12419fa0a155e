"""The ivshmem-style shared-memory ring buffer.

vRead shares a POSIX SHM object between each guest and its per-VM daemon,
exposed to the guest as a virtual PCI device and divided into slots
(default 1024 x 4 KiB) forming a ring (paper Sections 3.3 and 4).  Messages
occupy ``ceil(size / slot_bytes)`` slots; producers block when the ring is
full (backpressure), and consumers release the slots after copying data
out.  Per-slot spinlock costs are folded into the per-request cycle costs
charged by the channel users.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional

from repro.sim import Container, Event, SimulationError, Simulator, Store


class SharedRing:
    """A slot-based ring buffer shared between a guest and the hypervisor.

    A *stall* (:meth:`stall`/:meth:`unstall`) models the shared-memory
    device wedging — e.g. the hypervisor de-scheduling the daemon's
    polling core: producers and consumers block at the ring until it is
    unstalled.  Time still advances, so deadline-bounded conversations
    above the ring time out and degrade gracefully.
    """

    def __init__(self, sim: Simulator, slots: int = 1024,
                 slot_bytes: int = 4096, name: str = "vread-ring"):
        if slots < 1 or slot_bytes < 1:
            raise SimulationError("ring needs positive slots and slot size")
        self.sim = sim
        self.name = name
        self.slots = slots
        self.slot_bytes = slot_bytes
        self._free_slots = Container(sim, capacity=slots, init=slots)
        self._messages = Store(sim)
        self.max_occupancy = 0
        self._stalled: Optional[Event] = None
        self.stall_count = 0

    @property
    def stalled(self) -> bool:
        return self._stalled is not None

    def stall(self) -> None:
        """Wedge the ring: put/get block until :meth:`unstall`."""
        if self._stalled is None:
            self._stalled = Event(self.sim)
            self.stall_count += 1

    def unstall(self) -> None:
        """Release a stalled ring; blocked producers/consumers resume."""
        if self._stalled is not None:
            released, self._stalled = self._stalled, None
            released.succeed()

    def _wait_unstalled(self):
        while self._stalled is not None:
            yield self._stalled

    def slots_for(self, nbytes: int) -> int:
        """Slots needed for a payload of ``nbytes`` (min 1: headers)."""
        if nbytes < 0:
            raise ValueError(f"negative payload size {nbytes}")
        return max(1, -(-nbytes // self.slot_bytes))

    @property
    def capacity_bytes(self) -> int:
        return self.slots * self.slot_bytes

    @property
    def occupied_slots(self) -> int:
        return self.slots - int(self._free_slots.level)

    def put(self, payload: Any, nbytes: int):
        """Generator: write a message into the ring (blocks when full)."""
        needed = self.slots_for(nbytes)
        if needed > self.slots:
            raise SimulationError(
                f"message of {nbytes}B needs {needed} slots, ring has "
                f"{self.slots} — chunk it")
        yield from self._wait_unstalled()
        yield self._free_slots.get(needed)
        occupied = self.slots - int(self._free_slots.level)
        if occupied > self.max_occupancy:
            self.max_occupancy = occupied
        yield self._messages.put((payload, nbytes, needed))

    def get(self):
        """Generator: read the next message; frees its slots immediately
        (the consumer copies data out before releasing in reality — the copy
        cost is charged by the caller, so ordering is equivalent).

        Returns ``(payload, nbytes)``.
        """
        yield from self._wait_unstalled()
        payload, nbytes, needed = yield self._messages.get()
        yield self._free_slots.put(needed)
        return payload, nbytes

    def prune_cancelled(self) -> int:
        """Drop waiters orphaned by an interrupted producer/consumer."""
        return (self._messages.prune_cancelled()
                + self._free_slots.prune_cancelled())

    def discard_ready(self, predicate) -> int:
        """Synchronously drop ready messages matching ``predicate``.

        Frees their slots; preserves the order of surviving messages.
        Returns the number of messages discarded.  Used by the channel's
        abort path to flush responses of an abandoned conversation.
        """
        kept = deque()
        freed = 0
        discarded = 0
        for payload, nbytes, needed in self._messages.items:
            if predicate(payload):
                freed += needed
                discarded += 1
            else:
                kept.append((payload, nbytes, needed))
        self._messages.items = kept
        if freed:
            # Free-slot puts always fit (we only return what was taken).
            self._free_slots.put(freed)
        return discarded

    def __repr__(self) -> str:
        return (f"<SharedRing {self.name} {self.occupied_slots}/{self.slots} "
                f"slots x {self.slot_bytes}B>")
