#!/bin/sh
# examples_gate.sh — the examples smoke (docs/CI.md).
#
# Builds each examples/ program once into a temporary directory and runs
# it from the repository root twice, at GOMAXPROCS=1 and at the default.
# Both runs must exit 0 and print exactly examples/<name>/stdout.golden:
# each example benchmarks the simulated cluster, predicts with
# pevpm.Predict and executes the workload, so its output pins the
# predictions against the simulated runs, and no test runs it otherwise.
#
# Rewrite the goldens after a deliberate change to an example's output
# with:
#   scripts/examples_gate.sh -update-golden
set -eu

UPDATE=""
for arg in "$@"; do
    case "$arg" in
    -update-golden) UPDATE=1 ;;
    *)
        echo "examples_gate: unknown argument $arg" >&2
        exit 2
        ;;
    esac
done

cd "$(dirname "$0")/.."
tmp=$(mktemp -d "${TMPDIR:-/tmp}/examples_gate.XXXXXX")
trap 'rm -rf "$tmp"' EXIT

for ex in quickstart jacobi fft summa taskfarm; do
    go build -o "$tmp/$ex" "./examples/$ex"
    golden="examples/$ex/stdout.golden"
    if [ -n "$UPDATE" ]; then
        "$tmp/$ex" > "$golden"
        echo "examples_gate: wrote $golden"
        continue
    fi
    "$tmp/$ex" > "$tmp/$ex.out"
    cmp "$tmp/$ex.out" "$golden"
    GOMAXPROCS=1 "$tmp/$ex" > "$tmp/$ex.serial.out"
    cmp "$tmp/$ex.serial.out" "$golden"
done
if [ -z "$UPDATE" ]; then
    echo "examples_gate: every example's output matches its golden at GOMAXPROCS=1 and at the default"
fi
