#!/bin/sh
# The repository's CI gate (see docs/CI.md for the full pipeline
# description):
#
#   1. go vet + build, plus the pinned staticcheck sweep (skips with a
#      notice when the module proxy is unreachable; see
#      scripts/staticcheck.sh); then vet and test of perfbench/, the
#      repository benchmark's own module, which imports internal/
#      packages, so an internal API change that breaks it fails here
#      rather than when the benchmark runs
#   2. the full test suite under the race detector, then every
#      allocation guard (tests named *Alloc*) repeated 20 times, so a
#      guard whose count depends on map order or GC timing fails here
#      rather than as an occasional flake; then 10 s fuzz smokes of
#      FuzzQuantile, which holds Histogram.Quantile's guide-table search
#      to the binary search bit for bit, of FuzzParseTopology, which
#      holds the topology grammar to errors, never panics or oversized
#      path tables, of FuzzParse, which holds the .pvm model parser to
#      repeatable errors and never panics, of FuzzEval, which holds
#      the expression evaluator to repeatable results and its printer to
#      a precedence-preserving round trip, of FuzzEvaluate, which holds
#      the PEVPM machine on random programs to no panics and to reports
#      that a repeated, fresh-program, traced or interleaved evaluation
#      reproduces bit for bit, and mpilint to agreement with it (an
#      evaluation that fails a directive check has an error finding at
#      that directive, and a per-directive error finding means the
#      evaluation fails), of FuzzResolve, which
#      holds the pevpmd request decoder and resolver to repeatable
#      errors, never panics, and canonical bytes that parse back to
#      themselves, of FuzzPatternSpec, which holds mpibench's pattern
#      front end to repeatable errors, never panics, a matrix that
#      passes Matrix.Check, and refusing an oversized pattern before
#      building its matrix, of FuzzLedger, which holds benchjson's
#      ledger reader to repeatable errors, never panics, and accepting
#      only ledgers that pass -check against themselves, and of
#      FuzzSchedule, which holds fault-schedule validation to
#      repeatable errors and an accepted schedule's queries to their
#      ranges (no NaN, no factor outside its bounds)
#   3. the detlint sweep: the repository's own determinism/zero-alloc
#      analyzers (internal/detlint, docs/DETLINT.md) over every
#      package, warnings promoted to errors; stdlib-only, never skipped
#   4. the mpilint sweep over every shipped .pvm model and fixture,
#      checking each file's expected clean/finding exit code
#   5. the determinism diff: cmd/repro run twice with the same seed,
#      serial (-parallel=1) and at the default worker count — any byte
#      of divergence in the figures or the -metrics snapshot fails,
#      and both must match their committed golden files; the same
#      serial-vs-parallel diff covers an adaptive-stopping mpibench run
#      (stopping decisions, confidence intervals and manifests included)
#   6. the fault-injection gates: one scenario preset smoke-run through
#      the CLI, then the serial-vs-parallel determinism diff of the
#      full perturbed sweep (figures and metrics); the determinism step
#      also covers the sharded large-run mode (a 2048-node fat tree at
#      1 vs 4 shards, healthy and faulted) and the Rail/Fan/Dense
#      pattern sweep (serial vs parallel); the fat-tree, dragonfly and
#      pattern smoke runs below keep the hierarchical-topology and
#      group-to-group CLI paths exercised (docs/PATTERNS.md), and the
#      examples smoke runs each of the five examples/ programs, which
#      nothing else runs, at GOMAXPROCS=1 and at the default, and
#      compares its output with its committed golden file
#   7. the pprof smoke: `make profile` must produce non-empty CPU and
#      allocation profiles of the serial figure sweep, of a sharded
#      2048-node run and of PEVPM evaluations (tooling stays usable;
#      timing not gated)
#   8. the benchmark CI-overlap gate against BENCH_baseline.json:
#      metrics are replicated interval cells, and a metric fails only
#      when its interval and the baseline's are disjoint (wall metrics:
#      disjoint in the regression direction, after calibration
#      normalisation) — see docs/BENCHMARKING.md
#   9. the coverage gate against scripts/coverage_floor.txt
#  10. the service gate: a real pevpmd prediction server on an
#      ephemeral port, the committed golden requests replayed against
#      it (repeated and concurrent identical requests byte-identical,
#      second request a response-cache hit, bodies matching the
#      committed goldens), then a concurrent load smoke whose duplicate
#      requests must dedupe to identical bytes (docs/SERVICE.md)
set -eux

go vet ./...
go build ./...
(cd perfbench && go vet ./... && go test ./...)
make staticcheck
go test -race ./...
go test -count=20 -run Alloc ./internal/...
go test -run '^$' -fuzz '^FuzzQuantile$' -fuzztime 10s ./internal/stats
go test -run '^$' -fuzz '^FuzzParseTopology$' -fuzztime 10s ./internal/cluster
go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 10s ./internal/pevpm
go test -run '^$' -fuzz '^FuzzEval$' -fuzztime 10s ./internal/pevpm
go test -run '^$' -fuzz '^FuzzEvaluate$' -fuzztime 10s ./internal/pevpm
go test -run '^$' -fuzz '^FuzzResolve$' -fuzztime 10s ./internal/service
go test -run '^$' -fuzz '^FuzzPatternSpec$' -fuzztime 10s ./internal/mpibench
go test -run '^$' -fuzz '^FuzzLedger$' -fuzztime 10s ./cmd/benchjson
go test -run '^$' -fuzz '^FuzzSchedule$' -fuzztime 10s ./internal/faults
make detlint
make lint
make determinism
make faults-smoke
make determinism-faults
# fat-tree smoke: the sharded large-run CLI end to end on a fresh topology
go run ./cmd/run -app largerun -topo fattree:512x16x4 -shards 0 -rounds 1 -window 2 -msg-size 4096 > /dev/null
go run ./cmd/run -app largerun -topo dragonfly:8x4x8+2rail -shards 0 -rounds 1 -window 1 -msg-size 2048 > /dev/null
# pattern smoke: the group-to-group engine end to end on both topology families
go run ./cmd/mpibench -pattern dense -topo dragonfly:4x2x4 -pgk 8x4x2 -direction omni -window 2 -sizes 4096 -reps 6 -warmup 2 -summary=false
go run ./cmd/run -app patternrun -topo fattree:512x16x4 -pattern rail -pgk 16x4x2 -rounds 1 -window 2 -msg-size 4096 -shards 0 > /dev/null
# examples smoke: every examples/ program runs to completion and prints
# its committed golden output, at GOMAXPROCS=1 and at the default
make examples
make profile
test -s profiles/cpu.pprof
test -s profiles/allocs.pprof
test -s profiles/sharded_cpu.pprof
test -s profiles/sharded_allocs.pprof
test -s profiles/pevpm_cpu.pprof
test -s profiles/pevpm_allocs.pprof
make bench-check
make coverage
make service-gate
