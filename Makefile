# Convenience targets for the vRead reproduction.

.PHONY: install test lint bench bench-smoke paper-benches reference-check profile bench-tables report paper-report quick-report demo clean

install:
	python setup.py develop

test:
	PYTHONPATH=src python -m pytest tests/

lint:
	PYTHONPATH=src python -m repro.analysis src/repro

# End-to-end benchmark: five workloads, five run-level metrics, digest
# pins (see benchmarks/e2e/README.md); bench-smoke is the CI profile.
bench:
	python3 benchmarks/e2e/bench.py

bench-smoke:
	PYTHONPATH=src python -m pytest benchmarks/e2e -q
	python3 benchmarks/e2e/bench.py --workload churn --runs 1 --check

# The paper bench (benchmarks/test_paper_claims.py): every experiment's
# CLAIMS at the default profile, each claim asserted.  Needs
# pytest-benchmark; timing is disabled, only the claims are checked.
paper-benches:
	PYTHONPATH=src python -m pytest benchmarks --ignore=benchmarks/e2e --benchmark-disable -q

# Every registry experiment at quick, once on the fast paths with sweeps
# fanned out over two workers and once serially under REPRO_SANITIZE=1
# (the sliced CPU reference): the canonical JSON of the two runs must be
# byte-identical, which also holds every sweep to --jobs identity.  The
# sha256 of each fast run's canonical JSON must also equal its seed-0
# digest in benchmarks/e2e/pins.json (the "suite-quick" pins).
REFERENCE_DIR ?= .reference-check
reference-check:
	@mkdir -p $(REFERENCE_DIR)
	@names=$$(PYTHONPATH=src python -c "from repro.experiments import registry; print(' '.join(s.name for s in registry.specs(None)))"); \
	total=0; same=0; pinned=0; \
	for exp in $$names; do \
		total=$$((total + 1)); \
		PYTHONPATH=src python -m repro run $$exp --quick --jobs 2 --json $(REFERENCE_DIR)/$$exp.fast.json > /dev/null || exit 1; \
		if python -c 'import hashlib, json, sys; pin = json.load(open("benchmarks/e2e/pins.json"))["suite-quick"][sys.argv[1]]["digest"]; text = json.dumps(json.load(open(sys.argv[2])), sort_keys=True, separators=(",", ":")); sys.exit(hashlib.sha256(text.encode()).hexdigest() != pin)' $$exp $(REFERENCE_DIR)/$$exp.fast.json; then \
			pinned=$$((pinned + 1)); \
		else \
			echo "UNPINNED   $$exp (digest differs from benchmarks/e2e/pins.json)"; \
		fi; \
		REPRO_SANITIZE=1 PYTHONPATH=src python -m repro run $$exp --quick --json $(REFERENCE_DIR)/$$exp.reference.json > /dev/null || exit 1; \
		if cmp -s $(REFERENCE_DIR)/$$exp.fast.json $(REFERENCE_DIR)/$$exp.reference.json; then \
			same=$$((same + 1)); echo "identical  $$exp"; \
		else \
			echo "DIFFERENT  $$exp"; \
		fi; \
	done; \
	echo "reference-check: $$same/$$total identical, $$pinned/$$total match their pinned digest"; \
	test $$same -eq $$total && test $$pinned -eq $$total

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
