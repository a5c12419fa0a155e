"""The paper bench: every paper claim, at the registry's default profile.

Each experiment module states its paper claims once, as ``CLAIMS`` (see
:mod:`repro.experiments.claims`).  This bench runs every experiment that
has claims at the ``default`` profile, reports its rendered figure with
one line per claim, and asserts every claim.
"""

import functools

import pytest

from repro.experiments import registry
from repro.experiments.runner import run_experiment
from repro.metrics.accounting import RDMA, VREAD_NET

SPECS = [spec for spec in registry.specs() if spec.resolve_claims()]


@pytest.fixture(scope="module")
def results():
    """name -> default-profile result, each measured once; Figs 11-13
    share one table of measured TestDFSIO cells."""
    cells = {}
    return functools.lru_cache(maxsize=None)(
        lambda name: run_experiment(name, profile="default", cells=cells))


@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.name)
def test_paper_claims(spec, benchmark, report, results):
    result = benchmark.pedantic(results, args=(spec.name,), rounds=1,
                                iterations=1)
    verdicts = [claim.verdict(result) for claim in spec.resolve_claims()]
    report("\n".join([result.render()]
                     + [f"  {line}" for _, line in verdicts]))
    broken = [line for ok, line in verdicts if not ok]
    assert not broken, "\n".join(broken)


def test_fig08_tcp_daemons_cost_more_than_rdma(results):
    """Fig 8 against Fig 7: TCP daemons still beat vanilla (fig08's
    claims), but are far less profitable than the RDMA transport."""
    tcp, rdma = results("fig08"), results("fig07")
    assert (tcp.client.bars["vRead"].total
            > rdma.client.bars["vRead"].total)
    # Per byte, the daemons' user-space TCP costs more than RDMA did.
    assert (tcp.serving.bars["vRead-daemon"].get(VREAD_NET)
            > rdma.serving.bars["vRead-daemon"].get(RDMA) * 3)
