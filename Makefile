# Convenience targets for the reproduction.

PYTHON ?= python

# gitignored scratch of the make check gates: the regenerated
# artifacts with their campaign cache and manifest
CHECK_DIR := .check
# what check-artifacts regenerates sanitized and check-campaign-cache
# re-runs warm
CHECK_SELECTION := not-slow

.PHONY: install check lint verify check-artifacts \
	check-artifacts-all test test-fast test-all bench bench-baseline \
	trace-goldens check-tracing-overhead check-campaign-cache \
	experiments-fast experiments-all examples clean

# The default verification flow: static misuse analysis, unit tests
# (the static-vs-dynamic conformance audit among them), the committed
# artifacts regenerated (cold) and byte-compared, the warm-cache
# invariant (the same campaign again executes zero runners), and every
# example.
check: lint verify test check-artifacts check-campaign-cache examples

# Static misuse analysis (MPI protocol, determinism, crypto) over the
# tree the repo promises to keep clean; exits nonzero on any finding.
# ruff rides along when installed (config in pyproject.toml).
lint:
	$(PYTHON) -m repro.analysis lint src/repro examples
	@command -v ruff >/dev/null 2>&1 \
		&& ruff check src/repro examples \
		|| echo "ruff not installed; skipped style pass"

# Flow-sensitive verification: abstract-interpret every rank program in
# the workload/experiment/example trees, extract its symbolic comm
# graph, and check match completeness, tag consistency, collective
# order, deadlock cycles, and crypto taint (MPI1xx/CRY1xx).  Findings
# already recorded in lint-baseline.json are forgiven; new ones fail.
verify:
	$(PYTHON) -m repro.analysis verify --baseline lint-baseline.json

# The committed results/ are the reproduction's record, and this is its
# gate.  It regenerates the not-slow tier with the runtime sanitizer
# armed in every job (deadlock diagnosis, leaked-request tracking,
# nonce-reuse checks), then the fast tier, cryptmpi (chunk pipeline on
# helper cores) and resilience (seeded faults with ack/retransmit) on
# the thread runtime, and byte-compares every regenerated .txt/.json
# with its committed file.  (scale, in the fast tier, evaluates a
# closed form and starts no ranks on either pass.)  Virtual time is
# deterministic and depends neither on the sanitizer nor on how rank
# programs are scheduled, so any difference is drift: a regression, or
# an intended change that must re-commit the artifact and say why.
# Cache hits skip runners (and thus the sanitizer), so the sanitized
# pass starts from an emptied directory: its cache is cold and every
# runner executes, filling the cache check-campaign-cache re-reads.
# check-artifacts-all widens the sanitized pass to every experiment
# (the slow tier adds minutes); make check runs check-artifacts.
check-artifacts check-artifacts-all:
	rm -rf $(CHECK_DIR)/sanitized $(CHECK_DIR)/threads
	$(PYTHON) -m repro.experiments campaign \
		$(if $(filter %-all,$@),all,$(CHECK_SELECTION)) -j 2 \
		--sanitize --output $(CHECK_DIR)/sanitized
	$(PYTHON) -m repro.experiments campaign fast cryptmpi resilience -j 2 \
		--no-cache --runtime threads --output $(CHECK_DIR)/threads
	@status=0; \
	for new in $(CHECK_DIR)/sanitized/*.txt $(CHECK_DIR)/sanitized/*.json \
		$(CHECK_DIR)/threads/*.txt $(CHECK_DIR)/threads/*.json; do \
		name=$${new##*/}; \
		[ "$$name" = campaign.json ] && continue; \
		if [ ! -f "results/$$name" ]; then \
			echo "$@: results/$$name is not committed"; status=1; \
		elif ! cmp -s "results/$$name" "$$new"; then \
			diff -u "results/$$name" "$$new" | head -n 20; \
			echo "$@: results/$$name differs from its regeneration $$new"; \
			status=1; \
		fi; \
	done; \
	[ $$status = 0 ] && echo "$@: every regenerated artifact matches results/"; \
	exit $$status

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/ -m "not slow"

test-fast:
	$(PYTHON) -m pytest tests/ -x -q -m "not slow"

test-all:
	$(PYTHON) -m pytest tests/

# Quick smoke of the substrate's hot paths (seconds, skips slow experiments);
# compares against the committed baseline so regressions are visible.
bench:
	$(PYTHON) -m repro.experiments bench --smoke

# Regenerate the committed full-mode baseline (minutes; includes fig6).
bench-baseline:
	$(PYTHON) -m repro.experiments bench --output BENCH_core.json

# Regenerate the golden-trace fixture after an intentional behavior change
# (review the digest diff — it is a statement that observable simulation
# behavior moved).
trace-goldens:
	$(PYTHON) -m repro.experiments trace --write-goldens

# Assert the guarded trace-emit sites cost <2% with tracing disabled,
# against the committed full-mode baseline (minutes; wall-clock sensitive).
check-tracing-overhead:
	$(PYTHON) -m repro.experiments bench --check-tracing --baseline BENCH_core.json

# Warm-cache invariant: repeating check-artifacts' sanitized campaign
# must serve every cell from $(CHECK_DIR)/sanitized/cache and execute
# zero experiment runners.
check-campaign-cache: check-artifacts
	$(PYTHON) -m repro.experiments campaign $(CHECK_SELECTION) \
		--expect-all-cached --output $(CHECK_DIR)/sanitized

experiments-fast:
	$(PYTHON) -m repro.experiments run fast

# Regenerate the whole committed record into results/ (minutes); the
# diff is a statement that the artifacts intentionally moved.
experiments-all:
	$(PYTHON) -m repro.experiments run all --output results/

examples:
	@for f in examples/*.py; do echo "== $$f =="; $(PYTHON) $$f || exit 1; done

# Removes build and check byproducts; the committed results/ stay.
clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache $(CHECK_DIR) \
		results/cache results/campaign.json
	find . -name __pycache__ -type d -exec rm -rf {} +
