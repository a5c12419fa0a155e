"""Fast paths change host time only, never simulated results.

Each registry experiment below runs twice: with every fast path on
(coalesced CPU bursts, zero-copy buffers with digest reuse) and in the
full reference configuration (slice-by-slice CPU loop, join-and-slice
bytes plane).  The canonical JSON must match byte for
byte.  Component-level equivalence lives in ``tests/properties``; this
pins the composition on whole experiments.
"""

import pytest

from repro.experiments import dfsio_sweep, runner
from repro.hostmodel.cpu import legacy_slices
from repro.storage.content import legacy_buffers


def _run(name):
    return runner.canonical_json(
        runner.run_experiment(name, profile="quick", jobs=1, seed=0))


@pytest.mark.parametrize("name", ["fig03", "fig11", "scale-racks"])
def test_all_fast_paths_match_full_reference(monkeypatch, name):
    # The dfsio sweep memoizes cells per process: start each run empty so
    # the reference run cannot replay the fast run's cells.
    monkeypatch.setattr(dfsio_sweep, "_cache", {})
    fast = _run(name)
    monkeypatch.setattr(dfsio_sweep, "_cache", {})
    with legacy_slices(), legacy_buffers():
        reference = _run(name)
    assert fast == reference
