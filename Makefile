.PHONY: all build test costs fmt bench bench-smoke perf-par osrbench osrbench-fp fuzz clean

all: build

build:
	dune build

# Tier-1 gate: full build + every test suite (includes the bench smoke rule).
test:
	dune build && dune runtest

# Rewrite the cost gate's golden file (test/costs.expected) from the current
# code; `dune runtest` diffs against it.  Explain every changed line in
# CHANGES.md.
costs:
	dune build ./test/costs.exe && ./_build/default/test/costs.exe > test/costs.expected

# Formatting gate. ocamlformat is not available in this environment, so the
# @fmt alias is scoped to dune files via (formatting (enabled_for dune)) in
# dune-project; run `dune build @fmt --auto-promote` to fix reported diffs.
fmt:
	dune build @fmt

bench:
	dune exec bench/main.exe -- all

# Fast instrumented self-check: sweep two kernels under a live telemetry
# sink and validate the emitted Chrome trace with the in-tree JSON reader.
bench-smoke:
	dune exec bench/main.exe -- smoke

# Parallel sweep scaling (j = 1, 2, 4, #cores) + BENCH_parallel.json.
perf-par:
	dune exec bench/main.exe -- perf-par

# The OSR pipeline benchmark (osrbench/, BENCHMARK.json): every workload for
# 5 s at seed 1, untraced, printing each workload's JSON result line.
OSRBENCH_WORKLOADS = kernels-prep study-debug steady-run osr-fire

osrbench:
	@for w in $(OSRBENCH_WORKLOADS); do \
	  out=$$(python3 osrbench/run.py --workload $$w --seed 1 --seconds 5 --trace 0) || exit 1; \
	  echo "$$w $$(printf '%s\n' "$$out" | tail -n 1)"; \
	done

# Each workload's determinism fingerprint at seed 1 (untraced, 1 s runs: the
# fingerprint covers the fixed batch, not the timed tail).  Run it on two
# checkouts and `diff` the outputs to check a change keeps outputs equal.
osrbench-fp:
	@for w in $(OSRBENCH_WORKLOADS); do \
	  out=$$(python3 osrbench/run.py --workload $$w --seed 1 --seconds 1 --trace 0) || exit 1; \
	  echo "$$w $$(printf '%s\n' "$$out" | grep '^fingerprint')"; \
	done

# Large-iteration seeded fault-injection fuzzing over every feasible
# corpus transition on both engines (a small fixed-seed slice of the same
# harness runs on every `dune runtest`). Seeds are deterministic: rerun
# with the printed seed to replay a failure.
fuzz:
	dune exec test/fuzz/fuzz_main.exe -- -n 2000 -seed0 1

clean:
	dune clean
