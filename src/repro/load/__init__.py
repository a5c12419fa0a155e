"""Open-loop multi-tenant load generation with streaming SLO metrics.

See ``docs/load.md`` for the walkthrough.  The package splits into:

- :mod:`repro.load.arrivals` — seeded open-loop arrival processes
  (Poisson, bursty/MMPP, diurnal).
- :mod:`repro.load.tenants` — tenant traffic contracts and Zipf key skew.
- :mod:`repro.load.slo` — streaming per-tenant SLO sinks and the final
  :class:`~repro.load.slo.SloReport`.
- :mod:`repro.load.generator` — the :class:`LoadGenerator` harness
  (open-loop reads over ``cluster.clients``).
"""

from repro.load.arrivals import (ArrivalProcess, BurstyArrivals,
                                 DiurnalArrivals, PoissonArrivals,
                                 make_arrivals)
from repro.load.generator import LoadGenerator
from repro.load.slo import SloReport, TenantSlo, TenantSloSummary
from repro.load.tenants import TenantSpec, ZipfKeys, default_tenants

__all__ = [
    "ArrivalProcess",
    "BurstyArrivals",
    "DiurnalArrivals",
    "LoadGenerator",
    "PoissonArrivals",
    "SloReport",
    "TenantSlo",
    "TenantSloSummary",
    "TenantSpec",
    "ZipfKeys",
    "default_tenants",
    "make_arrivals",
]
