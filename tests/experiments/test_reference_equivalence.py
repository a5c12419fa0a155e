"""Fast paths change host time only, never simulated results.

Each registry experiment below runs twice: with every fast path on
(coalesced CPU bursts and the view-identity rule of ``same_bytes``) and
in the reference configuration.  The canonical
JSON must match byte for byte.  Component-level equivalence lives in
``tests/properties``; this pins the composition on whole experiments.

The reference is sanitize mode (``REPRO_SANITIZE=1``, read when each
simulator is built), which runs every CPU burst slice by slice, plus
``tests.oracles.hashing_plane``, under which ``same_bytes`` compares the
bytes themselves.  Every simulator an
experiment builds is checked: the reference runs are all sanitized, the
fast runs none.

``scale-churn`` and ``load-sweep`` open and close one connection per
stream, and a close queues its FIN events at the closing instant, which
often denies the CPU scheduler its same-instant mutex elision.  They are
checked against sanitize mode alone: hashing every verified read would
make them minutes long.
"""

import contextlib

import pytest

from repro.experiments import runner
from repro.sim import Simulator
from tests.oracles import hashing_plane


def _run(name, sanitize, plane=contextlib.nullcontext):
    sanitized = []
    build = Simulator.__init__

    def recording_init(sim, *args, **kwargs):
        build(sim, *args, **kwargs)
        sanitized.append(sim.sanitizer is not None)

    with pytest.MonkeyPatch.context() as patch, plane():
        patch.setenv("REPRO_SANITIZE", "1" if sanitize else "0")
        patch.setattr(Simulator, "__init__", recording_init)
        result = runner.canonical_json(
            runner.run_experiment(name, profile="quick", jobs=1, seed=0))
    assert sanitized and set(sanitized) == {sanitize}
    return result


@pytest.mark.parametrize("name", ["fig03", "fig11", "scale-racks"])
def test_all_fast_paths_match_full_reference(name):
    fast = _run(name, sanitize=False)
    assert fast == _run(name, sanitize=True, plane=hashing_plane)


@pytest.mark.parametrize("name", ["scale-churn", "load-sweep"])
def test_coalesced_cpu_path_matches_sliced_reference(name):
    assert _run(name, sanitize=False) == _run(name, sanitize=True)
