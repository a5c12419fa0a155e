"""Streaming SLO sinks: bounded memory, deterministic digests.

The open-loop load generator (:mod:`repro.load`) streams every request
outcome into two kinds of sink, so its memory stays flat however many
requests a run makes:

:class:`LogHistogram`
    A fixed-bin log-bucketed quantile sketch.  Bucket ``i`` covers values
    in ``[10^(i/b), 10^((i+1)/b))`` for ``b = BINS_PER_DECADE``, so bucket
    membership is a pure function of the value — unlike t-digest the
    result does not depend on insertion order.  Quantiles use nearest-rank
    selection and return the bucket's geometric midpoint, which is off
    from the selected sample by at most ``10^(1/(2b)) - 1`` (about 1.16%).
    :meth:`LogHistogram.digest` is the SHA-256 of the sketch's canonical
    state; SLO reports carry it so determinism gates can compare runs.

:class:`WindowedCounter`
    Occurrence counts per fixed ``WINDOW_SECONDS`` time window (deadline
    misses per window, for the SLO-violation time fraction).

Empty-state contract
--------------------
Every accessor that needs at least one sample raises
:class:`EmptyMetricError` (a ``ValueError`` subclass) with a message of
the form ``"<where>: no samples recorded"``.  See ``docs/extending.md``.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "BINS_PER_DECADE",
    "EmptyMetricError",
    "LogHistogram",
    "WINDOW_SECONDS",
    "WindowedCounter",
]

#: Resolution of :class:`LogHistogram` buckets.
BINS_PER_DECADE = 100

#: Width of a :class:`WindowedCounter` window, in simulated seconds.
WINDOW_SECONDS = 0.5


class EmptyMetricError(ValueError):
    """An accessor needed samples but the sink or benchmark has none.

    Subclasses ``ValueError`` so pre-existing ``except ValueError``
    handlers (and tests) keep working.  The message always follows
    ``"<where>: no samples recorded"`` so empty-state failures read the
    same across the metrics package.
    """

    def __init__(self, where: str):
        super().__init__(f"{where}: no samples recorded")
        self.where = where


def _canonical(state: Any) -> str:
    """Canonical JSON text for digesting (sorted keys, repr-exact floats).

    Floats go through ``repr`` (shortest round-trip form), so two states
    digest equal iff their floats are bit-equal.
    """
    def encode(obj: Any) -> Any:
        if isinstance(obj, float):
            return repr(obj)
        if isinstance(obj, dict):
            return {str(key): encode(value) for key, value in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [encode(item) for item in obj]
        return obj

    return json.dumps(encode(state), sort_keys=True, separators=(",", ":"))


class LogHistogram:
    """Fixed-bin log-bucketed histogram: a deterministic quantile sketch.

    Positive values land in bucket ``floor(log10(v) * BINS_PER_DECADE)``;
    zero and negative values are counted in a dedicated underflow bucket
    (latencies are positive, but a sink must not crash on a degenerate
    sample).  The exact minimum and maximum are tracked alongside, and
    quantile results are clamped into ``[minimum, maximum]`` so a sparse
    histogram never reports a value outside the observed range.
    """

    __slots__ = ("_counts", "_underflow", "_count", "_min", "_max")

    def __init__(self):
        self._counts: Dict[int, int] = {}
        self._underflow = 0
        self._count = 0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        self._count += 1
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value
        if value <= 0.0:
            self._underflow += 1
            return
        index = math.floor(math.log10(value) * BINS_PER_DECADE)
        counts = self._counts
        counts[index] = counts.get(index, 0) + 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def maximum(self) -> float:
        if self._max is None:
            raise EmptyMetricError("LogHistogram.maximum")
        return self._max

    def quantile(self, q: float) -> float:
        """Nearest-rank ``q``-th percentile (0..100), bucket-resolution.

        Selects the sample of rank ``max(1, ceil(q/100 * count))`` in
        sorted order and returns the geometric midpoint of its bucket,
        clamped into ``[minimum, maximum]``.  Bucketing is monotonic, so
        the selected bucket is exactly the one holding that sample (ranks
        falling in the underflow bucket report the minimum).
        """
        if self._count == 0:
            raise EmptyMetricError("LogHistogram.quantile")
        if not 0 <= q <= 100:
            raise ValueError(f"percentile out of range: {q}")
        rank = max(1, math.ceil(q / 100.0 * self._count))
        if rank <= self._underflow:
            return self._min  # underflow bucket: all values <= 0
        cumulative = self._underflow
        for index in sorted(self._counts):
            cumulative += self._counts[index]
            if cumulative >= rank:
                midpoint = 10.0 ** ((index + 0.5) / BINS_PER_DECADE)
                return min(max(midpoint, self._min), self._max)
        return self._max  # unreachable unless counts were mutated

    def digest(self) -> str:
        """SHA-256 hex digest of the sketch's canonical state."""
        state = {
            "type": "log_histogram",
            "bins_per_decade": BINS_PER_DECADE,
            "count": self._count,
            "underflow": self._underflow,
            "counts": [[index, self._counts[index]]
                       for index in sorted(self._counts)],
            "min": self._min,
            "max": self._max,
        }
        return hashlib.sha256(_canonical(state).encode("ascii")).hexdigest()


class WindowedCounter:
    """Occurrence counts per fixed-width time window.

    ``observe(t)`` increments the window ``floor(t / WINDOW_SECONDS)``.
    """

    __slots__ = ("_windows", "_count")

    def __init__(self):
        self._windows: Dict[int, int] = {}
        self._count = 0

    def observe(self, time: float) -> None:
        index = math.floor(time / WINDOW_SECONDS)
        self._windows[index] = self._windows.get(index, 0) + 1
        self._count += 1

    @property
    def count(self) -> int:
        return self._count

    def windows(self) -> List[Tuple[int, int]]:
        """Sorted ``(window_index, count)`` pairs (empty windows omitted)."""
        return [(index, self._windows[index])
                for index in sorted(self._windows)]
