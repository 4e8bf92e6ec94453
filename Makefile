# Convenience targets for the reproduction.

PYTHON ?= python

# gitignored scratch of the make check gates: the regenerated
# artifacts with their campaign cache and manifest
CHECK_DIR := .check

.PHONY: install check lint verify check-artifacts test bench \
	bench-baseline trace-goldens check-tracing-overhead \
	check-campaign-cache experiments-all examples clean

# The default verification flow: static misuse analysis, unit tests
# (the static-vs-dynamic conformance audit among them, and every example
# through tests/integration/test_examples.py), the committed artifacts
# regenerated (cold) and byte-compared, and the warm-cache invariant
# (the same campaign again executes zero runners).  `make examples`
# runs the examples alone.
check: lint verify test check-artifacts check-campaign-cache

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
# order, deadlock cycles, and crypto taint (MPI1xx/CRY1xx); exits
# nonzero on any finding.
verify:
	$(PYTHON) -m repro.analysis verify

# The committed results/ are the reproduction's record, and this is its
# gate.  It regenerates every experiment with the runtime sanitizer
# armed in every job (deadlock diagnosis, leaked-request tracking,
# nonce-reuse checks), then eleven of them on the thread runtime: the
# enc-dec figures, the ping-pong tables and figures, the 1 B multipair
# figures, scale, cryptmpi (chunk pipeline on helper cores) and
# resilience (seeded faults with ack/retransmit).  It byte-compares
# every regenerated .txt/.json with its committed file.  (scale
# evaluates a closed form and starts no ranks on either pass.)  Virtual
# time is deterministic and depends neither on the sanitizer nor on how
# rank programs are scheduled, so any difference is drift: a
# regression, or an intended change that must re-commit the artifact
# and say why.
# Cache hits skip runners (and thus the sanitizer), so the sanitized
# pass starts from an emptied directory: its cache is cold and every
# runner executes, filling the cache check-campaign-cache re-reads.
check-artifacts:
	rm -rf $(CHECK_DIR)/sanitized $(CHECK_DIR)/threads
	$(PYTHON) -m repro.experiments campaign all -j 2 \
		--sanitize --output $(CHECK_DIR)/sanitized
	$(PYTHON) -m repro.experiments campaign fig2 fig9 table1 fig3 table5 \
		fig10 fig4 fig11 scale cryptmpi resilience -j 2 \
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
	$(PYTHON) -m pytest tests/

# Quick smoke of the substrate's hot paths (seconds, skips the fig6 bench);
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
	$(PYTHON) -m repro.experiments campaign all \
		--expect-all-cached --output $(CHECK_DIR)/sanitized

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
