"""Paper claims: each shape the reproduction promises, stated once.

An experiment module declares its claims next to the code that measures
them, as a tuple of :class:`Claim` in ``CLAIMS`` (or the attribute its
registry spec's ``claims`` names).  ``repro run all`` prints one ``->``
line per claim, the tier-1 suite checks every claim at the ``quick``
profile, and ``benchmarks/test_paper_claims.py`` at ``default``.

``holds`` is the reproduction's own promise, a direction and a floor or
band, never the paper's exact value.  ``paper`` comes from
:mod:`repro.experiments.paper_data`, the only home of the paper's numbers,
or is ``None`` for a structural claim.  This module imports only the
standard library, so declaring claims adds no import work.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Bound:
    """A promised bound on a measured value; call it to test a value."""

    text: str
    test: Callable[[float], bool]

    def __call__(self, value: float) -> bool:
        return self.test(value)

    def __str__(self) -> str:
        return self.text


def _bound(symbol: str, compare: Callable[[float, float], bool]):
    """A factory of bounds ``value <symbol> limit``."""
    return lambda limit: Bound(f"{symbol} {limit:g}",
                               lambda value: compare(value, limit))


above, at_least = _bound(">", operator.gt), _bound(">=", operator.ge)
below, at_most = _bound("<", operator.lt), _bound("<=", operator.le)
equal = _bound("==", operator.eq)


def between(low: float, high: float) -> Bound:
    return Bound(f"in ({low:g}, {high:g})", lambda value: low < value < high)


def least_gap(higher: Sequence[float], lower: Sequence[float]) -> float:
    """The smallest ``higher[i] - lower[i]``; negative if any pair flips."""
    return min(high - low for high, low in zip(higher, lower))


def least_step(values: Sequence[float]) -> float:
    """The smallest rise between consecutive values; negative if any falls."""
    return least_gap(values[1:], values)


@dataclass(frozen=True)
class Claim:
    """One paper shape: ``holds(measure(result))`` must be true."""

    id: str
    text: str
    measure: Callable[[Any], float]
    holds: Callable[[float], bool]
    paper: Optional[float] = None

    def verdict(self, result: Any) -> Tuple[bool, str]:
        """Measure ``result``; return whether the claim holds and the
        report line that says so."""
        value = self.measure(result)
        ok = bool(self.holds(value))
        paper = "" if self.paper is None else f", paper {self.paper:g}"
        return ok, (f"-> {self.id}: {self.text} = {value:.4g} "
                    f"(promise {self.holds}{paper}) "
                    f"{'holds' if ok else 'BROKEN'}")
