# Convenience targets for the reproduction.

PYTHON ?= python

.PHONY: install check lint verify check-conformance check-sanitize \
	check-resilience check-cryptmpi check-hostile \
	check-predict check-scale check-runtime-parity test test-fast test-all \
	bench bench-baseline bench-pytest \
	trace-goldens check-tracing-overhead \
	campaign-fast check-campaign-cache \
	experiments-fast experiments-all examples clean

# The default verification flow: static misuse analysis, unit tests,
# a parallel fast-tier campaign, the warm-cache invariant (second run
# executes zero runners), a sanitized re-run of the fast tier, and the
# fault-sweep determinism invariant.
check: lint verify test campaign-fast check-campaign-cache check-sanitize \
	check-resilience check-cryptmpi check-hostile check-predict check-scale \
	check-runtime-parity check-conformance

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

# Static-vs-dynamic conformance: the verifier's predicted comm graph
# diffed against recorded traces of the fast-tier goldens — zero
# unexplained dynamic ops — and the report itself must be byte-identical
# across two runs (the verifier and the simulator are deterministic).
check-conformance:
	rm -rf results/conformance
	mkdir -p results/conformance
	$(PYTHON) -m repro.analysis conformance > results/conformance/run-a.txt
	$(PYTHON) -m repro.analysis conformance > results/conformance/run-b.txt
	diff results/conformance/run-a.txt results/conformance/run-b.txt
	@echo "check-conformance: fast-tier goldens conform, byte-identical"

# Fast-tier campaign with the runtime sanitizer armed in every cell:
# deadlock diagnosis, leaked-request tracking, nonce-reuse checks.
# --no-cache because cache hits skip runners (and thus the sanitizer);
# a separate results tree keeps the main cache warm.
check-sanitize:
	$(PYTHON) -m repro.experiments campaign fast -j 4 --no-cache \
		--sanitize --output results/sanitize

# Fault-sweep determinism: the resilience experiment (seeded FaultPlan
# x backoff policy over the reliable encrypted ping-pong) run twice must
# produce byte-identical artifacts — retransmission timing, backoff, and
# fault sequences are all virtual-time deterministic.
check-resilience:
	rm -rf results/resilience-a results/resilience-b
	$(PYTHON) -m repro.experiments run resilience --output results/resilience-a
	$(PYTHON) -m repro.experiments run resilience --output results/resilience-b
	diff -r results/resilience-a results/resilience-b
	@echo "check-resilience: two seeded fault sweeps byte-identical"

# Pipelined-crypto determinism: the cryptmpi experiment (chunked seals
# scheduled on the node's helper cores, overlapped with the wire) run
# twice must produce byte-identical artifacts — core allocation order,
# chunk completion order, and nonce draws are all virtual-time
# deterministic.
check-cryptmpi:
	rm -rf results/cryptmpi-a results/cryptmpi-b
	$(PYTHON) -m repro.experiments run cryptmpi --output results/cryptmpi-a
	$(PYTHON) -m repro.experiments run cryptmpi --output results/cryptmpi-b
	diff -r results/cryptmpi-a results/cryptmpi-b
	@echo "check-cryptmpi: two pipelined-crypto sweeps byte-identical"

# Hostile-fabric determinism: the hostile experiment (WAN/IoT presets
# with seeded jitter/wobble/loss, bootstrap CIs over seeded reps) run
# twice must produce byte-identical artifacts — noise draws, loss
# sequences, and resampling are all seeded.  REPRO_HOSTILE_REPS caps the
# per-cell repetitions so the gate stays fast; the committed
# results/hostile.* are the full 20-rep run.
check-hostile:
	rm -rf results/hostile-a results/hostile-b
	REPRO_HOSTILE_REPS=5 \
		$(PYTHON) -m repro.experiments run hostile --output results/hostile-a
	REPRO_HOSTILE_REPS=5 \
		$(PYTHON) -m repro.experiments run hostile --output results/hostile-b
	diff -r results/hostile-a results/hostile-b
	@echo "check-hostile: two capped hostile sweeps byte-identical"

# Prediction-engine determinism: calibrate + validate (the predict
# experiment sweeps a ~2000-cell off-anchor grid against the simulator)
# run twice must produce byte-identical artifacts — the closed-form fit
# has no wall-clock or randomness in it (DET004 lints exactly that).
check-predict:
	rm -rf results/predict-a results/predict-b
	$(PYTHON) -m repro.experiments run predict --output results/predict-a
	$(PYTHON) -m repro.experiments run predict --output results/predict-b
	diff -r results/predict-a results/predict-b
	@echo "check-predict: two predictor validations byte-identical"

# Large-rank determinism: the scale experiment (fluid Encrypted_Alltoall
# on the coroutine runtime) run twice must produce byte-identical
# artifacts.  REPRO_SCALE_MAX_RANKS caps the sweep at 256 ranks so the
# gate stays fast; the committed results/scale.* are the full 4096 run.
check-scale:
	rm -rf results/scale-a results/scale-b
	REPRO_SCALE_MAX_RANKS=256 \
		$(PYTHON) -m repro.experiments run scale --output results/scale-a
	REPRO_SCALE_MAX_RANKS=256 \
		$(PYTHON) -m repro.experiments run scale --output results/scale-b
	diff -r results/scale-a results/scale-b
	@echo "check-scale: two capped scale sweeps byte-identical"

# Runtime parity: the fast experiment tier and the cryptmpi experiment
# (chunk pipeline on helper cores) forced onto the thread runtime and
# onto the coroutine runtime must produce byte-identical artifacts —
# virtual time cannot depend on how rank programs are scheduled.
# (tests/simmpi/test_runtime_parity.py pins the same invariant at
# golden-trace granularity.)
check-runtime-parity:
	rm -rf results/runtime-threads results/runtime-coroutines
	$(PYTHON) -m repro.experiments run fast --runtime threads \
		--output results/runtime-threads
	$(PYTHON) -m repro.experiments run fast --runtime coroutines \
		--output results/runtime-coroutines
	$(PYTHON) -m repro.experiments run cryptmpi --runtime threads \
		--output results/runtime-threads/cryptmpi
	$(PYTHON) -m repro.experiments run cryptmpi --runtime coroutines \
		--output results/runtime-coroutines/cryptmpi
	diff -r results/runtime-threads results/runtime-coroutines
	@echo "check-runtime-parity: fast tier and cryptmpi byte-identical across runtimes"

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

bench-pytest:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Regenerate the golden-trace fixture after an intentional behavior change
# (review the digest diff — it is a statement that observable simulation
# behavior moved).
trace-goldens:
	$(PYTHON) -m repro.experiments trace --write-goldens

# Assert the guarded trace-emit sites cost <2% with tracing disabled,
# against the committed full-mode baseline (minutes; wall-clock sensitive).
check-tracing-overhead:
	$(PYTHON) -m repro.experiments bench --check-tracing --baseline BENCH_core.json

# Fast-tier campaign across 4 workers into results/ (cache + manifest).
campaign-fast:
	$(PYTHON) -m repro.experiments campaign fast -j 4

# Warm-cache invariant: an immediately repeated campaign must serve every
# cell from results/cache and execute zero experiment runners.
check-campaign-cache: campaign-fast
	$(PYTHON) -m repro.experiments campaign fast -j 4 --expect-all-cached

experiments-fast:
	$(PYTHON) -m repro.experiments run fast

experiments-all:
	$(PYTHON) -m repro.experiments run all --output results/

examples:
	@for f in examples/*.py; do echo "== $$f =="; $(PYTHON) $$f || exit 1; done

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache results
	find . -name __pycache__ -type d -exec rm -rf {} +
