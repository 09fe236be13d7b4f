# Convenience targets.  In offline environments without the `wheel`
# package, `make install` falls back to the legacy setuptools path.

.PHONY: install test test-parallel test-serve test-shard test-batch bench \
	bench-show bench-analysis bench-io bench-serve bench-scale \
	bench-incremental bench-diff perfbench importtime serve profile \
	trace examples report all

# Every target runs against this checkout's sources, installed or not;
# commands and the subprocesses they start inherit the export.
export PYTHONPATH := $(CURDIR)/src$(if $(PYTHONPATH),:$(PYTHONPATH))

install:
	pip install -e . || python setup.py develop

test:
	pytest tests/

# Exercise the parallel execution path on every campaign the suite
# builds: REPRO_EXECUTOR/REPRO_WORKERS reroute each run_campaign call
# without an explicit executor through the process backend, and the
# differential equivalence tests (tests/test_executor_equivalence.py)
# run alongside as part of tests/.
test-parallel:
	REPRO_EXECUTOR=process REPRO_WORKERS=2 pytest tests/

# The serving layer end to end: e2e serving/caching/dedup plus the
# fault-injection suite (corruption repair, timeouts, backpressure,
# graceful drain).
test-serve:
	pytest tests/test_serve.py tests/test_serve_faults.py

# The sharded out-of-core pipeline: differential byte-identity against
# the monolithic build (all executor backends), shard-boundary RNG
# property tests, and the 10x-vs-1x scale-invariance check.
test-shard:
	pytest tests/test_shard_world.py tests/test_shard_world_properties.py \
		tests/test_shard_world_scale.py

# The observation kernel: RNG lattice and plan-index property tests plus
# the cell-by-cell and end-to-end byte-identity differentials against
# the reference oracle (tests/observe_oracle.py).
test-batch:
	pytest tests/test_batch_equivalence.py tests/test_plan_equivalence.py \
		tests/test_plan_properties.py

bench:
	pytest benchmarks/ --benchmark-only

bench-show:
	pytest benchmarks/ --benchmark-only -s

# Bracket the bit-packed analysis engine against the reference path
# (multi-origin enumeration, bootstrap, full report) and run the
# packed-speedup guard; extends the BENCH_<n>.json trajectory.
bench-analysis:
	pytest benchmarks/test_perf_analysis.py --benchmark-only -s
	pytest benchmarks/test_perf_analysis.py::test_perf_packed_speedup_guard -s

# Bracket the columnar snapshot store against NDJSON, the warm world
# cache against a cold build, and the shared-memory pool handoff
# against the pickled-world initializer; extends the BENCH_<n>.json
# trajectory and runs the I/O acceptance guard.
bench-io:
	pytest benchmarks/test_perf_io.py --benchmark-only -s
	pytest benchmarks/test_perf_io.py::test_perf_io_speedup_guard -s

# Load-generate against an in-process campaign service: records
# hit/miss p50/p99 latency and warm RPS into the BENCH_<n>.json
# trajectory and asserts the warm-hit floor (p50 >= 20x cheaper than
# recompute).
bench-serve:
	pytest benchmarks/test_perf_serve.py -s

# Stream the full paper grid through the sharded pipeline: monolithic
# vs sharded at 1x and sharded at 10x (~1.2 M host rows) under the
# 512 MB memory budget; records hosts/second and per-phase peak RSS
# into the BENCH_<n>.json trajectory.
bench-scale:
	pytest benchmarks/test_perf_shard.py -s

# Bracket an add-one-origin request against the whole-campaign cold
# miss it used to be: seed the plane cache with a 7-origin run, then
# serve the 8-origin grid cold (cache off) and warm (only the added
# origin's batches dispatch); records the warm-delta speedup into the
# BENCH_<n>.json trajectory and asserts the >=5x floor on multi-CPU
# machines.
bench-incremental:
	pytest benchmarks/test_perf_incremental.py -s

# Perf-regression sentinel: compare the newest BENCH_<n>.json against
# the TRAJECTORY.json history with noise-tolerant thresholds; exits
# non-zero when any benchmark's median regresses past tolerance.
bench-diff:
	python -m repro bench diff --dir bench_artifacts

# The repository benchmark (BENCHMARK.json): one 30 s run of one
# workload at one seed, from the checkout's own src/.  TRACE=1 adds the
# traced run and its per-layer breakdown.  To check a perf claim, run
# at least ten pairs against a checkout of the parent commit,
# alternating which side runs first, e.g.
#   make perfbench WORKLOAD=serve_mix SEED=7 TRACE=1
WORKLOAD ?= sharded_grid
SEED ?= 0
TRACE ?= 0
perfbench:
	python3 perfbench/run.py --workload $(WORKLOAD) --seed $(SEED) \
		--seconds 30 --trace $(TRACE)

# The 15 costliest imports (cumulative microseconds) of the CLI, the
# sharded pipeline and the server.  Every process that imports repro
# pays for a heavy dependency imported at module level, so none should
# appear here: scipy.stats, for one, loads on first use.
importtime:
	python -X importtime -c "import repro.cli, repro.sim.shard, repro.serve" \
		2>&1 | sort -t'|' -k2 -n -r | head -15

# Run the campaign service in the foreground (Ctrl-C drains).
serve:
	python -m repro serve $(SERVE_ARGS)

# cProfile the paper-scale observation kernel (warm caches) over one
# trial batch and print the per-stage ObserveProfile breakdown.  Pass
# options via PROFILE_ARGS, e.g. one trial of SSH:
#   make profile PROFILE_ARGS="--protocol ssh --trials 1"
profile:
	python -m repro profile --scale 1.0 $(PROFILE_ARGS)

# Run a telemetry-instrumented campaign and render its run journal
# (span tree, manifest, top counters).
trace:
	python -m repro simulate /tmp/repro-trace --scale 0.1 \
		--telemetry /tmp/repro-trace.ndjson
	python -m repro trace /tmp/repro-trace.ndjson

examples:
	for f in examples/*.py; do echo "== $$f"; python $$f; done

report:
	python -m repro simulate /tmp/repro-campaign --scale 0.2
	python -m repro report /tmp/repro-campaign

all: install test bench
