# Convenience targets for the vRead reproduction.

.PHONY: install test lint analyze chaos bench bench-smoke kernel-smoke reference-check load-smoke storage-smoke churn-smoke profile bench-tables report paper-report quick-report demo clean

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

# Every registry experiment at quick, once on the fast paths with sweeps
# fanned out over two workers and once serially under REPRO_SANITIZE=1
# (the sliced CPU reference): the canonical JSON of the two runs must be
# byte-identical, which also holds every sweep to --jobs identity.
REFERENCE_DIR ?= .reference-check
reference-check:
	@mkdir -p $(REFERENCE_DIR)
	@names=$$(PYTHONPATH=src python -c "from repro.experiments import registry; print(' '.join(s.name for s in registry.specs(None)))"); \
	total=0; same=0; \
	for exp in $$names; do \
		total=$$((total + 1)); \
		PYTHONPATH=src python -m repro run $$exp --quick --jobs 2 --json $(REFERENCE_DIR)/$$exp.fast.json > /dev/null || exit 1; \
		REPRO_SANITIZE=1 PYTHONPATH=src python -m repro run $$exp --quick --json $(REFERENCE_DIR)/$$exp.reference.json > /dev/null || exit 1; \
		if cmp -s $(REFERENCE_DIR)/$$exp.fast.json $(REFERENCE_DIR)/$$exp.reference.json; then \
			same=$$((same + 1)); echo "identical  $$exp"; \
		else \
			echo "DIFFERENT  $$exp"; \
		fi; \
	done; \
	echo "reference-check: $$same/$$total identical"; \
	test $$same -eq $$total

# Subsystem smokes: the load, tiered-storage and elastic-membership
# suites, including their determinism and memory-flatness gates.
load-smoke:
	PYTHONPATH=src python -m pytest tests/load tests/metrics/test_sinks.py -q

storage-smoke:
	PYTHONPATH=src python -m pytest tests/storage tests/cluster/test_storage_tiers.py -q
	PYTHONPATH=src python -m pytest tests/properties/test_zero_copy.py -k pagecache -q

churn-smoke:
	PYTHONPATH=src python -m pytest tests/cluster/test_membership.py tests/experiments/test_scale_churn.py -q

# Usage: make profile [EXP=fig11] [PROFILE_FLAGS="--quick --memory"]
EXP ?= fig11
profile:
	PYTHONPATH=src python -m repro profile $(EXP) $(PROFILE_FLAGS)

bench-tables:
	PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only

report:
	PYTHONPATH=src python -m repro run all --ablations

paper-report:
	PYTHONPATH=src python -m repro run all --paper

quick-report:
	PYTHONPATH=src python -m repro run all --quick

demo:
	PYTHONPATH=src python -m repro demo

clean:
	find . -name __pycache__ -type d -exec rm -rf {} + 2>/dev/null; true
	rm -rf .pytest_cache .hypothesis src/repro.egg-info .reference-check
