#!/bin/sh
# mpilint regression sweep: every .pvm model shipped in the repository
# is linted with -werror at the default 8 processes.
#
# Shipped example models must lint clean (exit 0). Every fixture under
# internal/mpilint/testdata declares its expected exit code in a
# `# lint-exit: N` header annotation (0 = clean, 1 = findings); a
# missing or malformed annotation fails the sweep, as does an empty
# fixture set — a renamed directory must not silently skip the sweep.
# Exit 2 (usage or parse error) always fails, so a parser regression
# cannot masquerade as "findings reported". The per-file pass/fail
# table is appended to GITHUB_STEP_SUMMARY when CI provides one.
#
# cmd/mpilint is built once into a temporary directory; set MPILINT to
# run another command instead.
set -eu

cd "$(dirname "$0")/.."
fail=0
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
table="$tmp/table"
: > "$table"
if [ -z "${MPILINT:-}" ]; then
    go build -o "$tmp/mpilint" ./cmd/mpilint
    MPILINT="$tmp/mpilint"
fi

note() { # file expected got status
    printf '| %s | %s | %s | %s |\n' "$1" "$2" "$3" "$4" >> "$table"
}

check() {
    f=$1
    want=$2
    set +e
    $MPILINT -werror "$f" > /dev/null 2>&1
    got=$?
    set -e
    if [ "$got" -ne "$want" ]; then
        echo "lint sweep: FAIL $f: exit $got, want $want" >&2
        note "$f" "$want" "$got" FAIL
        fail=1
    else
        echo "lint sweep: ok (exit $got) $f"
        note "$f" "$want" "$got" ok
    fi
}

# expected_exit prints the fixture's annotated exit code, or nothing
# (with a diagnostic on stderr) when the annotation is missing,
# duplicated or not a valid code.
expected_exit() {
    f=$1
    ann=$(sed -n 's/^# lint-exit:[[:space:]]*//p' "$f")
    case "$ann" in
    0|1)
        printf '%s\n' "$ann"
        return 0
        ;;
    "")
        echo "lint sweep: $f: missing '# lint-exit: N' annotation" >&2
        ;;
    2)
        echo "lint sweep: $f: lint-exit 2 is not annotatable (usage/parse errors always fail the sweep)" >&2
        ;;
    *)
        echo "lint sweep: $f: malformed lint-exit annotation '$ann' (want 0 or 1)" >&2
        ;;
    esac
    return 1
}

examples=$(find examples -name '*.pvm' | sort)
fixtures=$(find internal/mpilint/testdata -name '*.pvm' | sort)
if [ -z "$examples" ]; then
    echo "lint sweep: no example .pvm models found under examples/ — fixture set went missing" >&2
    exit 1
fi
if [ -z "$fixtures" ]; then
    echo "lint sweep: no fixtures found under internal/mpilint/testdata/ — fixture set went missing" >&2
    exit 1
fi

# Shipped examples are user-facing models, always expected clean.
for f in $examples; do
    check "$f" 0
done

for f in $fixtures; do
    if ! want=$(expected_exit "$f"); then
        note "$f" "?" "-" "BAD ANNOTATION"
        fail=1
        continue
    fi
    case "$(basename "$f")" in
    clean_*)
        # Filename convention and annotation must agree, so a mislabeled
        # fixture cannot quietly test the wrong thing.
        if [ "$want" -ne 0 ]; then
            echo "lint sweep: $f: clean_* fixture annotated lint-exit $want" >&2
            note "$f" "$want" "-" "BAD ANNOTATION"
            fail=1
            continue
        fi
        ;;
    esac
    check "$f" "$want"
done

if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
    {
        echo "### mpilint sweep"
        echo ""
        echo "| file | expected exit | got | status |"
        echo "| --- | --- | --- | --- |"
        cat "$table"
    } >> "$GITHUB_STEP_SUMMARY"
fi

if [ "$fail" -ne 0 ]; then
    echo "lint sweep: failures above" >&2
    exit 1
fi
echo "lint sweep: all models behaved as expected"
