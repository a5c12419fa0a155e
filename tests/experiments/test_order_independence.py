"""Results do not depend on what ran earlier in the interpreter.

Process-global state (kernel counters, inode and descriptor numbering)
must never reach a simulated result.  Three quick experiments run in one
interpreter in two opposite orders, and each must give the same
canonical JSON both times.
"""

from repro.experiments import runner

NAMES = ("fig03", "scale-racks", "ablation-storage-tiers")


def _run_in_order(names):
    return {name: runner.canonical_json(runner.run_experiment(
                name, profile="quick", jobs=1, seed=0))
            for name in names}


def test_results_do_not_depend_on_run_order():
    forward = _run_in_order(NAMES)
    backward = _run_in_order(reversed(NAMES))
    assert list(backward) == list(reversed(NAMES))
    assert forward == backward
