"""The experiment registry: one :class:`ExperimentSpec` per paper result.

Every experiment the reproduction can run is registered here with its CLI
name, the paper figure/table it reproduces, its parameter grid per size
profile (``quick`` / ``default`` / ``paper``), and the lazily-imported
module that builds it.  The CLI (``python -m repro run <name>``), the full
report (``python -m repro run all``) and the parallel runner
(:mod:`repro.experiments.runner`) are all thin clients of this table; it
is the only entry point (the old per-module ``main()`` shims are gone).

A sweep (``sweep=True``) declares its grid once, in its own module, as
three functions: ``points(**params)`` lists the independent points (one
simulated cluster each), ``run_point(point, seed, **params)`` measures one
of them, and ``assemble(results, **params)`` builds the result from the
``{point: result}`` table.  Parameter defaults live only in those
signatures.  The runner derives each point's seed from
``(root_seed, point)``, so serial and parallel runs are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import import_module
from types import ModuleType
from typing import Any, Callable, Dict, List, Optional, Sequence

#: Size profiles accepted by :meth:`ExperimentSpec.params`.
PROFILES = ("quick", "default", "paper")

_MB = 1 << 20


def _sizes(profile: str) -> Dict[str, int]:
    """The shared dataset-size knobs per profile (see EXPERIMENTS.md)."""
    if profile not in PROFILES:
        raise KeyError(f"unknown profile {profile!r}; expected one of "
                       f"{', '.join(PROFILES)}")
    if profile == "paper":
        return {"file_bytes": 1024 * _MB, "delay_bytes": 1024 * _MB}
    if profile == "quick":
        return {"file_bytes": 8 * _MB, "delay_bytes": 8 * _MB}
    return {"file_bytes": 32 * _MB, "delay_bytes": 16 * _MB}


@dataclass(frozen=True)
class ExperimentSpec:
    """One runnable experiment: identity, parameters, builder or sweep."""

    name: str                                  # CLI name, e.g. "fig11"
    figure: str                                # report heading, e.g. "Fig 11"
    title: str                                 # one-line description
    module: str                                # module under repro.experiments
    func: str = "run"                          # builder attribute in module
    #: profile -> builder kwargs (the parameter grid).
    params: Callable[[str], Dict[str, Any]] = field(default=lambda p: {})
    #: the module declares ``points`` / ``run_point`` / ``assemble``.
    sweep: bool = False
    #: result -> headline lines for the report (paper-comparison numbers).
    headline: Optional[Callable[[Any], List[str]]] = None
    #: report group: "paper" always runs; "ablation"/"extension" run with
    #: --ablations; "other" is CLI-only.
    group: str = "paper"

    def _import(self) -> ModuleType:
        return import_module(f"repro.experiments.{self.module}")

    @property
    def fanout(self) -> Optional[ModuleType]:
        """The sweep's module (its ``points`` / ``run_point`` /
        ``assemble``), or ``None`` for a one-shot experiment."""
        return self._import() if self.sweep else None

    def resolve(self) -> Callable[..., Any]:
        """Import and return the builder (a sweep's ``run_point``)."""
        return getattr(self._import(),
                       "run_point" if self.sweep else self.func)


_REGISTRY: Dict[str, ExperimentSpec] = {}


def register(spec: ExperimentSpec) -> ExperimentSpec:
    if spec.name in _REGISTRY:
        raise ValueError(f"experiment {spec.name!r} already registered")
    _REGISTRY[spec.name] = spec
    return spec


def get(name: str) -> ExperimentSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        from difflib import get_close_matches
        known = ", ".join(sorted(_REGISTRY))
        hint = ""
        close = get_close_matches(name, _REGISTRY, n=1)
        if close:
            hint = f" (did you mean {close[0]!r}?)"
        raise KeyError(f"unknown experiment {name!r}{hint}; known: {known}")


def names() -> List[str]:
    """Registered experiment names, in registration (report) order."""
    return list(_REGISTRY)


def specs(groups: Optional[Sequence[str]] = None) -> List[ExperimentSpec]:
    """Registered specs, optionally filtered by group, in report order."""
    if groups is None:
        return list(_REGISTRY.values())
    return [spec for spec in _REGISTRY.values() if spec.group in groups]


# ------------------------------------------------------------------- headlines
def _headline_breakdown(paper_client: str, paper_serving: str):
    def headline(result) -> List[str]:
        return [f"-> client CPU saving {result.client_saving_pct():.1f}% "
                f"({paper_client}), datanode-side "
                f"{result.serving_saving_pct():.1f}% ({paper_serving})"]
    return headline


def _headline_fig09(result) -> List[str]:
    lines = []
    for vms, paper in (("2vms", 40), ("4vms", 50)):
        best = max(result.reduction_pct(vms, cached, size)
                   for cached in (False, True)
                   for size in result.no_cache.x_values)
        lines.append(f"-> max delay reduction {vms}: {best:.1f}% "
                     f"(paper: up to {paper}%)")
    return lines


def _headline_fig11(result) -> List[str]:
    best_reread = max(
        result.improvement_pct(scenario, "reread", freq, vms)
        for scenario in ("colocated", "remote", "hybrid")
        for freq in ("1.6GHz", "2.0GHz", "3.2GHz")
        for vms in (2, 4))
    return [
        f"-> co-located read improvement: "
        f"{result.improvement_pct('colocated', 'read', '3.2GHz', 2):.1f}% "
        f"@3.2GHz (paper ~20%), "
        f"{result.improvement_pct('colocated', 'read', '1.6GHz', 2):.1f}% "
        f"@1.6GHz (paper ~41%)",
        f"-> best re-read improvement: {best_reread:.1f}% "
        f"(paper: up to 150%)",
    ]


def _headline_fig12(result) -> List[str]:
    return [f"-> co-located read CPU saving @2.0GHz 2vms: "
            f"{result.cpu_saving_pct('colocated', 'read', '2.0GHz', 2):.1f}%"]


def _headline_table3(result) -> List[str]:
    return [f"-> Hive -{result.hive_reduction_pct:.1f}% (paper -21.3%), "
            f"Sqoop -{result.sqoop_reduction_pct:.1f}% (paper -11.3%)"]


# ---------------------------------------------------------------- registration
register(ExperimentSpec(
    name="fig02", figure="Fig 2",
    title="HDFS-in-VM vs local read delay (motivation)",
    module="fig02_motivation_delay",
    params=lambda p: {"file_bytes": _sizes(p)["delay_bytes"]}))

register(ExperimentSpec(
    name="fig03", figure="Fig 3",
    title="netperf TCP_RR under I/O-thread contention",
    module="fig03_iothread_sync",
    params=lambda p: {"duration": 0.1 if p == "quick" else 0.3}))

register(ExperimentSpec(
    name="fig06", figure="Fig 6",
    title="CPU breakdown, co-located read",
    module="cpu_breakdowns", func="run_fig06",
    params=lambda p: {"file_bytes": _sizes(p)["file_bytes"]},
    headline=_headline_breakdown("paper ~40%", "paper ~65%")))

register(ExperimentSpec(
    name="fig07", figure="Fig 7",
    title="CPU breakdown, remote read (RDMA)",
    module="cpu_breakdowns", func="run_fig07",
    params=lambda p: {"file_bytes": _sizes(p)["file_bytes"]},
    headline=_headline_breakdown("paper ~45%", "paper >50%")))

register(ExperimentSpec(
    name="fig08", figure="Fig 8",
    title="CPU breakdown, remote read (TCP daemons)",
    module="cpu_breakdowns", func="run_fig08",
    params=lambda p: {"file_bytes": _sizes(p)["file_bytes"]},
    headline=_headline_breakdown(
        "paper: totals still below vanilla", "same")))

register(ExperimentSpec(
    name="fig09", figure="Fig 9",
    title="data access delay, vanilla vs vRead",
    module="fig09_vread_delay",
    params=lambda p: {"file_bytes": _sizes(p)["delay_bytes"]},
    headline=_headline_fig09))

register(ExperimentSpec(
    name="fig11", figure="Fig 11",
    title="TestDFSIO throughput (6 panels x 3 frequencies)",
    module="fig11_dfsio_throughput",
    params=lambda p: {"file_bytes": _sizes(p)["file_bytes"]},
    sweep=True,
    headline=_headline_fig11))

register(ExperimentSpec(
    name="fig12", figure="Fig 12",
    title="TestDFSIO CPU running time",
    module="fig12_dfsio_cputime",
    params=lambda p: {"file_bytes": _sizes(p)["file_bytes"]},
    sweep=True,
    headline=_headline_fig12))

register(ExperimentSpec(
    name="fig13", figure="Fig 13",
    title="TestDFSIO-write throughput (vRead_update overhead)",
    module="fig13_write_throughput",
    params=lambda p: {"file_bytes": _sizes(p)["file_bytes"]},
    sweep=True))

register(ExperimentSpec(
    name="table2", figure="Table 2",
    title="HBase scan / sequential / random read",
    module="table2_hbase",
    params=lambda p: {"n_rows": 8_192 if p == "quick" else 32_768}))

register(ExperimentSpec(
    name="table3", figure="Table 3",
    title="Hive select + Sqoop export",
    module="table3_hive_sqoop",
    params=lambda p: {"n_rows": 65_536 if p == "quick" else 262_144},
    headline=_headline_table3))

register(ExperimentSpec(
    name="ablation-direct-read", figure="Ablation: direct read (§6)",
    title="mounted host FS vs direct-read bypass (§6)",
    module="ablation_direct_read", group="ablation",
    params=lambda p: {"file_bytes": _sizes(p)["file_bytes"]}))

register(ExperimentSpec(
    name="ablation-transport", figure="Ablation: transport",
    title="RDMA vs TCP daemon transports",
    module="ablation_transport", group="ablation",
    params=lambda p: {"file_bytes": _sizes(p)["file_bytes"]}))

register(ExperimentSpec(
    name="ablation-ring", figure="Ablation: ring geometry",
    title="shared-ring geometry sweep",
    module="ablation_ring", group="ablation",
    params=lambda p: {"file_bytes": _sizes(p)["file_bytes"]}))

register(ExperimentSpec(
    name="ablation-packet-size", figure="Ablation: packet size",
    title="HDFS packet-size sweep",
    module="ablation_packet_size", group="ablation",
    params=lambda p: {"file_bytes": _sizes(p)["file_bytes"]}))

register(ExperimentSpec(
    name="ablation-cache-size", figure="Ablation: cache size",
    title="host page-cache size vs re-read speed",
    module="ablation_cache_size", group="ablation",
    params=lambda p: {"file_bytes": _sizes(p)["file_bytes"]}))


def _headline_tiers(result) -> List[str]:
    from repro.experiments.common import pct_improvement
    hdd = pct_improvement(result.value("vanilla cold", "hdd"),
                          result.value("vRead cold", "hdd"))
    nvme = pct_improvement(result.value("vanilla cold", "nvme"),
                           result.value("vRead cold", "nvme"))
    return [f"-> cold-read gain {hdd:.1f}% on HDD vs {nvme:.1f}% on NVMe "
            f"(fast media shifts the bottleneck to CPU, where vRead wins)"]


register(ExperimentSpec(
    name="ablation-storage-tiers", figure="Ablation: storage tiers",
    title="HDD / SSD / NVMe device sweep, vanilla vs vRead",
    module="ablation_storage_tiers", group="ablation",
    params=lambda p: {"file_bytes": _sizes(p)["file_bytes"]},
    sweep=True,
    headline=_headline_tiers))

register(ExperimentSpec(
    name="scale-clients", figure="Extension: client scale-out",
    title="multi-client scale-out (extension)",
    module="scale_clients", group="extension",
    params=lambda p: {"file_bytes": (4 if p == "quick" else 16) * _MB},
    sweep=True))

register(ExperimentSpec(
    name="scale-racks", figure="Extension: rack scale-out",
    title="multi-rack scale-out over the leaf-spine fabric (extension)",
    module="scale_racks", group="extension",
    params=lambda p: {"rack_counts": (1, 2) if p == "quick" else (1, 2, 3),
                      "file_bytes": (2 if p == "quick" else 4) * _MB},
    sweep=True))


def _headline_churn(result) -> List[str]:
    top = result.x_values[-1]
    return [
        f"-> churn={top!r} p99: vanilla "
        f"{result.value('vanilla p99', top):.2f}ms vs vRead "
        f"{result.value('vRead p99', top):.2f}ms "
        f"(degraded {result.value('vRead degraded %', top):.1f}% of the "
        f"window before re-probe recovered the fast path)",
    ]


register(ExperimentSpec(
    name="scale-churn", figure="Extension: cluster churn",
    title="elastic membership churn under read load (extension)",
    module="scale_churn", group="extension",
    params=lambda p: {
        "churn_levels": (("none", "migrate") if p == "quick"
                         else ("none", "migrate", "full")),
        "file_bytes": (1 if p == "quick" else 2) * _MB,
        "duration": {"quick": 1.0, "default": 2.0, "paper": 3.0}[p]},
    sweep=True,
    headline=_headline_churn))

def _headline_load_sweep(result) -> List[str]:
    top = result.x_values[-1]
    return [
        f"-> @{top:g} req/s/tenant healthy p99: "
        f"vanilla {result.report('vanilla', 'healthy', top).worst_p99_ms():.2f}ms "
        f"vs vRead {result.report('vRead', 'healthy', top).worst_p99_ms():.2f}ms",
        f"-> chaos violation time @{top:g}: vanilla "
        f"{result.report('vanilla', 'chaos', top).violation_time_fraction() * 100:.0f}% "
        f"vs vRead "
        f"{result.report('vRead', 'chaos', top).violation_time_fraction() * 100:.0f}%",
    ]


register(ExperimentSpec(
    name="load-sweep", figure="Extension: open-loop load sweep",
    title="multi-tenant open-loop SLO sweep, healthy vs chaos (extension)",
    module="load_sweep", group="extension",
    params=lambda p: {
        "rates": {"quick": (20.0, 60.0),
                  "default": (20.0, 60.0, 120.0),
                  "paper": (20.0, 60.0, 120.0, 200.0)}[p],
        "duration": {"quick": 1.5, "default": 2.5, "paper": 4.0}[p],
        "n_tenants": 2,
        "request_bytes": (128 if p == "quick" else 256) << 10,
        "deadline_ms": 2.0,
        "arrival_kind": "bursty"},
    sweep=True,
    headline=_headline_load_sweep))

register(ExperimentSpec(
    name="scale-tenants", figure="Extension: tenant scale-out",
    title="worst-tenant SLO vs tenant count (extension)",
    module="scale_tenants", group="extension",
    params=lambda p: {
        "tenant_counts": (1, 2) if p == "quick" else (1, 2, 4),
        "rate": 40.0,
        "duration": {"quick": 1.5, "default": 2.5, "paper": 4.0}[p],
        "request_bytes": (128 if p == "quick" else 256) << 10,
        "deadline_ms": 2.0,
        "arrival_kind": "bursty"},
    sweep=True))

register(ExperimentSpec(
    name="chaos-sweep", figure="Extension: chaos sweep",
    title="verified reads under seeded fault storms (extension)",
    module="chaos_sweep", group="extension",
    params=lambda p: {"cases": 4 if p == "quick" else 6,
                      "file_bytes": (2 if p == "quick" else 4) * _MB},
    sweep=True))

register(ExperimentSpec(
    name="sensitivity", figure="Sensitivity",
    title="cost-model perturbation robustness",
    module="sensitivity", group="other",
    params=lambda p: {"file_bytes": (4 if p == "quick" else 16) * _MB}))
