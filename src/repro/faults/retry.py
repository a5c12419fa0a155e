"""Deadlines, retries and backoff for the resilient read paths.

Three building blocks, all deterministic under the simulation clock:

* :func:`call_with_deadline` — run a sub-process with a sim-time budget;
  on expiry the sub-process is interrupted (its ``finally`` blocks release
  any held locks/slots) and :class:`DeadlineExceeded` is raised in the
  caller.
* :class:`RetryPolicy` — knobs + seeded-jitter exponential backoff for the
  HDFS client's replica failover loop (``DfsInputStream``).
* :class:`VReadClientPolicy` — open/read conversation timeouts and the
  daemon re-probe interval for ``libvread``'s graceful degradation to the
  vanilla path.

Randomized jitter draws from an explicitly passed ``random.Random`` (a
named :class:`~repro.sim.rng.RandomStreams` stream in practice), so two
runs with the same seed back off identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Generator, Optional

from repro.sim import AnyOf


class DeadlineExceeded(Exception):
    """A deadline-bounded operation did not complete in time."""


def call_with_deadline(sim, generator: Generator, seconds: Optional[float]):
    """Generator: run ``generator`` as a process with a sim-time budget.

    Returns the generator's return value if it finishes within ``seconds``
    (``None`` budget = unbounded, plain delegation).  On expiry the
    sub-process is interrupted — cleanup in its ``finally``/``with`` blocks
    runs at the current instant — and :class:`DeadlineExceeded` is raised.
    Exceptions from the generator propagate unchanged.
    """
    if seconds is None:
        return (yield from generator)
    process = sim.process(generator)
    timeout = sim.timeout(seconds)
    race = AnyOf(sim, [process, timeout])
    try:
        # A failed process fails the AnyOf, re-raising its exception here.
        yield race
    except BaseException:
        # The guarded operation failed (or this caller was itself
        # interrupted by an outer deadline): the race is over either way.
        if not timeout.processed:
            timeout.cancel()
        if process.is_alive:
            # Nobody waits on the race anymore (an interrupt detached this
            # caller from it), so the sub-process's Interrupt would fail it
            # unobserved and crash the kernel at drain.  The failure is
            # expected — mark it handled up front.
            race.defuse()
            process.interrupt(DeadlineExceeded("outer deadline expired"))
        raise
    if process.triggered:
        timeout.cancel()
        return process.value
    process.interrupt(DeadlineExceeded(f"deadline of {seconds}s expired"))
    raise DeadlineExceeded(
        f"operation exceeded its {seconds}s deadline at t={sim.now}")


def _check_timeout(name: str, value: Optional[float]) -> None:
    """A timeout is ``None`` (unbounded) or a finite positive number."""
    if value is not None and not (value > 0 and math.isfinite(value)):
        raise ValueError(
            f"{name} must be None or finite and positive: {value}")


def _check_non_negative(name: str, value: float) -> None:
    """A backoff, jitter or blacklist time is finite and non-negative."""
    if not (value >= 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be finite and non-negative: {value}")


@dataclass
class RetryPolicy:
    """Retry/backoff/blacklist knobs for ``DfsInputStream`` block fetches.

    One *attempt* is a full pass over the block's (non-blacklisted) replica
    list; replicas failing within a pass fail over to the next replica
    immediately, and exhausted passes sleep an exponentially growing,
    jittered backoff before retrying.
    """

    #: Full passes over the replica list before giving up.
    max_attempts: int = 3
    #: First inter-pass backoff (seconds, sim time).
    base_backoff: float = 0.02
    backoff_multiplier: float = 2.0
    max_backoff: float = 1.0
    #: Fraction of the backoff added as seeded random jitter (0 = none).
    jitter: float = 0.25
    #: Budget for one replica conversation; ``None`` = unbounded.
    attempt_timeout: Optional[float] = 5.0
    #: Overall per-read deadline across all replicas/attempts.
    read_deadline: Optional[float] = 30.0
    #: How long a failed replica stays blacklisted (sim seconds).
    blacklist_seconds: float = 2.0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1: {self.max_attempts}")
        for name in ("base_backoff", "max_backoff", "jitter",
                     "blacklist_seconds"):
            _check_non_negative(name, getattr(self, name))
        if not self.backoff_multiplier > 0:
            raise ValueError(f"backoff_multiplier must be positive: "
                             f"{self.backoff_multiplier}")
        _check_timeout("attempt_timeout", self.attempt_timeout)
        _check_timeout("read_deadline", self.read_deadline)

    def backoff(self, attempt: int, rng=None) -> float:
        """Backoff before retry pass ``attempt`` (0-based), with jitter."""
        delay = min(self.max_backoff,
                    self.base_backoff * self.backoff_multiplier ** attempt)
        if rng is not None and self.jitter > 0:
            delay *= 1.0 + self.jitter * rng.random()
        return delay


@dataclass
class VReadClientPolicy:
    """Timeout/degradation knobs for ``libvread`` conversations.

    When a conversation with the per-VM daemon exceeds its timeout the
    library abandons it, marks the daemon *degraded* and answers every call
    with the fallback signal (open -> ``None``, read -> ``VReadError``) so
    the HDFS integration uses the vanilla path.  After ``reprobe_interval``
    sim-seconds the next call becomes a re-probe: if the daemon answers,
    the library recovers and vRead reads resume.
    """

    open_timeout: Optional[float] = 0.25
    read_timeout: Optional[float] = 5.0
    reprobe_interval: float = 1.0

    def __post_init__(self):
        if not (self.reprobe_interval > 0
                and math.isfinite(self.reprobe_interval)):
            raise ValueError(f"reprobe_interval must be finite and positive: "
                             f"{self.reprobe_interval}")
        _check_timeout("open_timeout", self.open_timeout)
        _check_timeout("read_timeout", self.read_timeout)
