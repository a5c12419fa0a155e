# Convenience targets for the vRead reproduction.

.PHONY: install test lint analyze chaos bench bench-smoke kernel-smoke load-smoke storage-smoke churn-smoke profile bench-tables report paper-report quick-report demo clean

install:
	python setup.py develop

test:
	PYTHONPATH=src python -m pytest tests/

lint:
	PYTHONPATH=src python -m repro.analysis src/repro

# Whole-program analysis (per-module rules + cross-module taint/flow),
# gated on the committed baseline, with the incremental cache warm.
analyze:
	PYTHONPATH=src python -m repro.analysis src/repro \
		--baseline .simlint-baseline.json \
		--cache .simlint-cache.json --stats

chaos:
	PYTHONPATH=src python -m pytest tests/faults -q
	PYTHONPATH=src python examples/failure_drill.py

# End-to-end benchmark: five workloads, five run-level metrics, digest
# pins (see benchmarks/e2e/README.md); bench-smoke is the CI profile.
bench:
	python3 benchmarks/e2e/bench.py

bench-smoke:
	PYTHONPATH=src python -m pytest benchmarks/e2e -q
	python3 benchmarks/e2e/bench.py --workload churn --runs 1 --check

# Event kernel and CPU model: their unit suites (the cancelled-timer
# retention tests live in tests/sim) and the fast-vs-reference identity.
kernel-smoke:
	PYTHONPATH=src python -m pytest tests/sim tests/hostmodel tests/experiments/test_reference_equivalence.py -q

# Subsystem smokes: the load, tiered-storage and elastic-membership
# suites, including their determinism and memory-flatness gates.
load-smoke:
	PYTHONPATH=src python -m pytest tests/load tests/metrics/test_sinks.py -q

storage-smoke:
	PYTHONPATH=src python -m pytest tests/storage tests/cluster/test_storage_tiers.py tests/properties/test_stream_properties.py -q
	PYTHONPATH=src python -m pytest tests/properties/test_zero_copy.py -k pagecache -q

churn-smoke:
	PYTHONPATH=src python -m pytest tests/cluster/test_membership.py tests/load/test_autoscale.py tests/experiments/test_scale_churn.py -q

# Usage: make profile [EXP=fig11] [PROFILE_FLAGS="--quick --memory"]
EXP ?= fig11
profile:
	PYTHONPATH=src python -m repro profile $(EXP) $(PROFILE_FLAGS)

bench-tables:
	PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only

report:
	PYTHONPATH=src python -m repro.experiments.run_all --ablations

paper-report:
	PYTHONPATH=src python -m repro.experiments.run_all --paper

quick-report:
	PYTHONPATH=src python -m repro.experiments.run_all --quick

demo:
	PYTHONPATH=src python -m repro demo

clean:
	find . -name __pycache__ -type d -exec rm -rf {} + 2>/dev/null; true
	rm -rf .pytest_cache .hypothesis src/repro.egg-info
