# Build and verification entry points. `make ci` is what the repository
# considers a green build (see also ci.sh, the script CI invokes).

GO ?= go

.PHONY: all build vet test race lint detlint staticcheck coverage ci clean bench bench-check bench-baseline determinism faults-smoke determinism-faults profile service-gate serve-smoke

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# lint sweeps the repository's own static analyzer over every shipped
# model and lint fixture, checking each file's expected exit code.
lint:
	./scripts/lint_sweep.sh

# detlint enforces the determinism and zero-alloc contracts with the
# repository's own analyzers (internal/detlint, docs/DETLINT.md):
# wallclock/maprange/rng over the deterministic packages, hotpath over
# every //detlint:hotpath function. Stdlib-only, so it runs offline.
detlint:
	$(GO) run ./cmd/detlint -werror ./...

# staticcheck runs the pinned honnef.co staticcheck sweep via `go run`
# (nothing is vendored). Offline environments skip with a notice; CI
# always has the module proxy and runs the real check.
staticcheck:
	./scripts/staticcheck.sh

# coverage gates per-package test coverage against the committed floor
# in scripts/coverage_floor.txt (>1pt regression fails). Refresh the
# floor with `./scripts/coverage_gate.sh -update` after improving it.
coverage:
	./scripts/coverage_gate.sh

# bench regenerates the benchmark ledger: every figure at reduced
# density, replicated across 3 independent sub-seeds, stored as
# per-metric 95% confidence-interval cells (schema 2).
bench:
	$(GO) run ./cmd/benchjson -out BENCH.json

# bench-check gates on the committed baseline with the CI-overlap test:
# a figure metric fails when its interval and the baseline's are
# disjoint; a calibration-normalised wall metric fails only when the
# current interval lies entirely above the baseline's (a slowdown
# bigger than both runs' noise). Refresh the baseline with
# `make bench-baseline`; see docs/BENCHMARKING.md and docs/CI.md.
bench-check: bench
	$(GO) run ./cmd/benchjson -check -current BENCH.json -baseline BENCH_baseline.json

bench-baseline:
	$(GO) run ./cmd/benchjson -out BENCH_baseline.json

# determinism proves parallel sweeps change wall-clock only: the quick
# repro run must be byte-identical between -parallel=1 and the default
# worker count, and both must match the committed golden transcript so
# optimisation PRs cannot silently change simulated results
# (cmd/repro/testdata/golden_seed1.txt; regenerate it only when a PR
# deliberately changes model behaviour, and say so in the PR).
# The instrument snapshot (-metrics) is held to the same standard as
# the figures: byte-identical across worker counts and matching its own
# golden file (cmd/repro/testdata/golden_metrics_seed1.json).
determinism:
	$(GO) run ./cmd/repro -seed 1 -timing=false -collectives -parallel=1 -metrics /tmp/repro-metrics-serial.json > /tmp/repro-serial.txt
	$(GO) run ./cmd/repro -seed 1 -timing=false -collectives -metrics /tmp/repro-metrics-parallel.json > /tmp/repro-parallel.txt
	diff /tmp/repro-serial.txt /tmp/repro-parallel.txt
	diff /tmp/repro-serial.txt cmd/repro/testdata/golden_seed1.txt
	diff /tmp/repro-metrics-serial.json /tmp/repro-metrics-parallel.json
	diff /tmp/repro-metrics-serial.json cmd/repro/testdata/golden_metrics_seed1.json
	@echo "determinism: serial and parallel outputs and metrics are byte-identical and match the golden files"
	$(GO) run ./cmd/mpibench -op MPI_Isend -config 2x1,4x1 -sizes 1024 -reps 40 -warmup 10 \
		-adapt-relwidth 0.03 -adapt-max-batches 3 -parallel 1 -seed 1 -summary=false \
		-out /tmp/mpibench-adaptive-serial.json > /dev/null
	$(GO) run ./cmd/mpibench -op MPI_Isend -config 2x1,4x1 -sizes 1024 -reps 40 -warmup 10 \
		-adapt-relwidth 0.03 -adapt-max-batches 3 -parallel 8 -seed 1 -summary=false \
		-out /tmp/mpibench-adaptive-parallel.json > /dev/null
	diff /tmp/mpibench-adaptive-serial.json /tmp/mpibench-adaptive-parallel.json
	@echo "determinism: adaptive-stopping runs (stopping decisions, CIs, manifests) are byte-identical serial vs parallel"
	$(GO) run ./cmd/run -app largerun -topo fattree:2048x32x8 -shards 1 -rounds 1 -window 2 -msg-size 8192 \
		-manifest /tmp/largerun-manifest-serial.json -metrics /tmp/largerun-metrics-serial.json > /tmp/largerun-serial.txt
	$(GO) run ./cmd/run -app largerun -topo fattree:2048x32x8 -shards 4 -rounds 1 -window 2 -msg-size 8192 \
		-manifest /tmp/largerun-manifest-sharded.json -metrics /tmp/largerun-metrics-sharded.json > /tmp/largerun-sharded.txt
	grep -v '^wrote ' /tmp/largerun-serial.txt > /tmp/largerun-serial-out.txt
	grep -v '^wrote ' /tmp/largerun-sharded.txt > /tmp/largerun-sharded-out.txt
	diff /tmp/largerun-serial-out.txt /tmp/largerun-sharded-out.txt
	diff /tmp/largerun-manifest-serial.json /tmp/largerun-manifest-sharded.json
	diff /tmp/largerun-metrics-serial.json /tmp/largerun-metrics-sharded.json
	$(GO) run ./cmd/run -app largerun -topo fattree:2048x32x8 -shards 1 -rounds 1 -window 2 -msg-size 8192 \
		-faults congested-backplane > /tmp/largerun-faults-serial.txt
	$(GO) run ./cmd/run -app largerun -topo fattree:2048x32x8 -shards 4 -rounds 1 -window 2 -msg-size 8192 \
		-faults congested-backplane > /tmp/largerun-faults-sharded.txt
	diff /tmp/largerun-faults-serial.txt /tmp/largerun-faults-sharded.txt
	@echo "determinism: 2048-node sharded runs (transcript, manifest, metrics; healthy and faulted) are byte-identical at 1 vs 4 shards"
	$(GO) run ./cmd/mpibench -pattern rail,fan,dense -topo fattree:128x32x4 -pgk 32x4x2 -window 2 \
		-sizes 4096 -reps 6 -warmup 2 -seed 7 -estimates -parallel 1 -summary=false \
		-out /tmp/mpibench-pattern-serial.json > /dev/null
	$(GO) run ./cmd/mpibench -pattern rail,fan,dense -topo fattree:128x32x4 -pgk 32x4x2 -window 2 \
		-sizes 4096 -reps 6 -warmup 2 -seed 7 -estimates -parallel 8 -summary=false \
		-out /tmp/mpibench-pattern-parallel.json > /dev/null
	diff /tmp/mpibench-pattern-serial.json /tmp/mpibench-pattern-parallel.json
	@echo "determinism: Rail/Fan/Dense pattern sweeps (distributions, estimates, manifests) are byte-identical serial vs parallel"

# service-gate starts a real pevpmd prediction server on an ephemeral
# port and replays the committed golden requests against it: repeated
# and concurrent identical requests must return byte-identical bodies,
# the second request must be a response-cache hit, and every reply must
# match its committed golden (cmd/pevpmd/testdata). Regenerate goldens
# after a deliberate response-schema change with
# `./scripts/service_gate.sh -update-golden` — and say so in the PR.
service-gate:
	./scripts/service_gate.sh

# serve-smoke is the load half of the service gate: N concurrent mixed
# requests (SERVICE_SMOKE_N, default 32) against a fresh server, with
# duplicate requests asserted byte-identical and a cache-hit-rate +
# per-stage latency table written to GITHUB_STEP_SUMMARY in CI.
serve-smoke:
	./scripts/service_gate.sh -smoke-only

# profile captures CPU and allocation pprof profiles of the quick repro
# sweep (serial networks), of the root BenchmarkShardedRun (a 2048-node
# fat tree on the sharded network) and of internal/pevpm's
# BenchmarkEvaluate (PEVPM replications of Jacobi, FFT and the task farm
# at 64 processes) into profiles/ (gitignored), with each benchmark's
# test binary beside its profiles. Inspect with
# `go tool pprof profiles/cpu.pprof` — see docs/PERFORMANCE.md.
# Stale artifacts are removed first: ci.sh gates on `test -s`, which a
# leftover profile from an earlier run would satisfy even if this run
# failed to write one.
profile:
	mkdir -p profiles
	rm -f profiles/*.pprof
	$(GO) run ./cmd/repro -seed 1 -timing=false -cpuprofile profiles/cpu.pprof -memprofile profiles/allocs.pprof > /dev/null
	$(GO) test -run '^$$' -bench '^BenchmarkShardedRun$$' -benchtime 1x -o profiles/repro.test \
		-cpuprofile profiles/sharded_cpu.pprof -memprofile profiles/sharded_allocs.pprof .
	$(GO) test -run '^$$' -bench '^BenchmarkEvaluate$$' -benchtime 200x -o profiles/pevpm.test \
		-cpuprofile profiles/pevpm_cpu.pprof -memprofile profiles/pevpm_allocs.pprof ./internal/pevpm
	@echo "profile: wrote profiles/cpu.pprof, profiles/allocs.pprof, profiles/sharded_cpu.pprof, profiles/sharded_allocs.pprof, profiles/pevpm_cpu.pprof and profiles/pevpm_allocs.pprof"

# faults-smoke exercises one fault-scenario preset end to end through
# the CLI (schedule construction, perturbed benches, Jacobi
# measured-vs-predicted), failing on any error exit.
faults-smoke:
	$(GO) run ./cmd/repro -seed 1 -faults flaky-nic > /dev/null
	@echo "faults-smoke: perturbed sweep ran clean"

# determinism-faults extends the determinism proof to the perturbed
# sweep: fault windows, perturbed benches and predictions must be
# byte-identical between -parallel=1 and the default worker count.
determinism-faults:
	$(GO) run ./cmd/repro -seed 1 -faults all -parallel=1 -metrics /tmp/repro-faults-metrics-serial.json > /tmp/repro-faults-serial.txt
	$(GO) run ./cmd/repro -seed 1 -faults all -metrics /tmp/repro-faults-metrics-parallel.json > /tmp/repro-faults-parallel.txt
	diff /tmp/repro-faults-serial.txt /tmp/repro-faults-parallel.txt
	diff /tmp/repro-faults-metrics-serial.json /tmp/repro-faults-metrics-parallel.json
	@echo "determinism-faults: serial and parallel perturbed sweeps (figures and metrics) are byte-identical"

ci:
	./ci.sh

clean:
	$(GO) clean ./...
	rm -f BENCH.json
