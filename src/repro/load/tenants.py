"""Tenant specifications and skewed key selection.

A *tenant* is one independent traffic source: an arrival process, a
request-size/key-skew profile, and a latency deadline.  Each tenant
drives its own client VM through ``cluster.clients.get``.

Key skew follows the usual Zipf(s) popularity law over a tenant's block
universe: rank-``k`` popularity proportional to ``1 / k**s``.
:class:`ZipfKeys` precomputes the CDF once and samples by binary search,
so a million draws cost a million RNG calls, not a million normalization
sums.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from random import Random
from typing import List, Optional

from repro.load.arrivals import ArrivalProcess, make_arrivals

__all__ = ["TenantSpec", "ZipfKeys", "default_tenants"]


class ZipfKeys:
    """Seedable Zipf(s) sampler over keys ``0..n_keys-1`` (rank order).

    ``s = 0`` degenerates to uniform; larger ``s`` concentrates traffic
    on the first few keys (the "hot blocks" of the skew model).
    """

    def __init__(self, n_keys: int, s: float = 1.0):
        if n_keys < 1:
            raise ValueError(f"need at least one key: {n_keys}")
        if s < 0:
            raise ValueError(f"zipf exponent must be >= 0: {s}")
        self.n_keys = n_keys
        self.s = s
        cdf: List[float] = []
        acc = 0.0
        for rank in range(1, n_keys + 1):
            acc += 1.0 / rank ** s
            cdf.append(acc)
        self._cdf = [value / acc for value in cdf]

    def pick(self, rng: Random) -> int:
        """Draw one key (0-based rank)."""
        return bisect.bisect_left(self._cdf, rng.random())

    def hot_prefix(self, mass: float) -> int:
        """Smallest number of head keys covering ``mass`` of the traffic.

        Tiered storage uses this to size the hot set: with ``mass=0.8``
        the returned prefix of rank-ordered keys absorbs at least 80% of
        the accesses and is the slice worth pinning to fast media.
        """
        if not 0.0 < mass <= 1.0:
            raise ValueError(f"mass must be in (0, 1]: {mass}")
        return min(bisect.bisect_left(self._cdf, mass) + 1, self.n_keys)

    def __repr__(self) -> str:
        return f"<ZipfKeys n={self.n_keys} s={self.s}>"


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's traffic contract.

    ``deadline_seconds`` is the per-request latency SLO; a request whose
    open-loop latency (completion minus arrival) exceeds it counts as a
    deadline miss in the :class:`~repro.load.slo.SloReport`.
    """

    name: str
    #: Arrival process kind ("poisson" / "bursty" / "diurnal").
    arrival_kind: str = "poisson"
    #: Mean arrivals per second.
    rate: float = 20.0
    #: Latency SLO per request.
    deadline_seconds: float = 0.05
    #: Bytes requested per read.
    request_bytes: int = 256 << 10
    #: Number of distinct blocks/files in the tenant's working set.
    n_keys: int = 8
    #: Zipf exponent for key popularity (0 = uniform).
    zipf_s: float = 1.2
    #: Extra arrival-process parameters (e.g. burstiness, period).
    arrival_params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.name:
            raise ValueError("tenant needs a name")
        if self.deadline_seconds <= 0:
            raise ValueError(
                f"deadline must be positive: {self.deadline_seconds}")
        if self.request_bytes <= 0:
            raise ValueError(
                f"request size must be positive: {self.request_bytes}")

    def arrivals(self) -> ArrivalProcess:
        return make_arrivals(self.arrival_kind, self.rate,
                             **self.arrival_params)

    def keys(self) -> ZipfKeys:
        return ZipfKeys(self.n_keys, self.zipf_s)


def default_tenants(n_tenants: int, rate: float,
                    deadline_seconds: float = 0.05,
                    arrival_kind: str = "poisson",
                    request_bytes: int = 256 << 10,
                    n_keys: int = 8,
                    zipf_s: float = 1.2,
                    arrival_params: Optional[dict] = None
                    ) -> List[TenantSpec]:
    """A homogeneous tenant population (the sweep experiments' shape)."""
    if n_tenants < 1:
        raise ValueError(f"need at least one tenant: {n_tenants}")
    return [TenantSpec(name=f"tenant{i + 1}",
                       arrival_kind=arrival_kind,
                       rate=rate,
                       deadline_seconds=deadline_seconds,
                       request_bytes=request_bytes,
                       n_keys=n_keys,
                       zipf_s=zipf_s,
                       arrival_params=dict(arrival_params or {}))
            for i in range(n_tenants)]
