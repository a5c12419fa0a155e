"""Every paper claim holds at the quick profile.

The claims are stated once, in each experiment module's ``CLAIMS``; the
paper bench checks them at ``default``, this test at ``quick``, with one
shared ``cells`` table so Figs 11-13 measure each TestDFSIO cell once.
"""

import os
import subprocess
import sys

import pytest

import repro
from repro.experiments import registry, runner
from repro.experiments.claims import (Claim, above, at_least, at_most, below,
                                      between, equal, least_gap, least_step)

CLAIMED = [spec.name for spec in registry.specs() if spec.resolve_claims()]


@pytest.fixture(scope="module")
def cells():
    return {}


@pytest.mark.parametrize("name", CLAIMED)
def test_claims_hold_at_quick(name, cells):
    result = runner.run_experiment(name, profile="quick", cells=cells)
    verdicts = [claim.verdict(result)
                for claim in registry.get(name).resolve_claims()]
    broken = [line for ok, line in verdicts if not ok]
    assert not broken, "\n".join(broken)


def test_every_paper_figure_has_claims_with_unique_ids():
    assert set(CLAIMED) >= {spec.name for spec in registry.specs(("paper",))}
    ids = [claim.id for spec in registry.specs()
           for claim in spec.resolve_claims()]
    assert len(ids) == len(set(ids))


def test_bounds_keep_their_direction():
    assert above(0)(1e-300) and not above(0)(0.0)
    assert at_least(0)(0.0) and not at_least(0)(-1e-300)
    assert below(5)(4.9) and not below(5)(5.0)
    assert at_most(1.1)(1.1) and not at_most(1.1)(1.2)
    assert equal(0)(0.0) and not equal(0)(1e-300)
    assert between(5, 50)(20) and not between(5, 50)(50)
    assert str(between(5, 50)) == "in (5, 50)"


def test_gap_and_step_go_negative_when_the_shape_flips():
    assert least_gap([3.0, 5.0], [1.0, 4.0]) == 1.0
    assert least_gap([3.0, 5.0], [1.0, 6.0]) == -1.0
    assert least_step([1.0, 2.0, 2.0]) == 0.0
    assert least_step([1.0, 3.0, 2.0]) == -1.0


def test_verdict_line_reports_measured_promise_paper_and_outcome():
    claim = Claim("x-gain", "gain (%)", lambda r: r * 2, above(10),
                  paper=20.0)
    assert claim.verdict(6) == (
        True, "-> x-gain: gain (%) = 12 (promise > 10, paper 20) holds")
    ok, line = claim.verdict(4)
    assert not ok and line.endswith("BROKEN")


def test_registry_imports_no_experiment_module():
    code = ("import sys; from repro.experiments import registry; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith('repro.experiments.')))")
    env = dict(os.environ)
    src_root = os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__)))
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, env=env).stdout
    assert out.strip() == "['repro.experiments.registry']"
