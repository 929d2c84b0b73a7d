#!/usr/bin/env bash
# Staged offline CI gate.
#
# Runs every stage even after a failure and prints a PASS/FAIL/SKIP summary
# table — with per-stage wall-clock times — at the end; exits non-zero if any
# stage failed. No network access is assumed anywhere — every dependency is a
# vendored in-repo shim (see vendor/), so all cargo invocations run with
# --offline.
#
# Usage:
#   scripts/ci.sh                    full gate (fmt, builds, tests, clippy,
#                                    doc, pipeline check)
#   scripts/ci.sh --quick            debug build + tests only
#   scripts/ci.sh --stages a,b,c     run only the named stages; everything
#                                    else is recorded as SKIP. Stage names are
#                                    the ones printed in the summary table.
set -uo pipefail
cd "$(dirname "$0")/.."

ALL_STAGES="fmt build-debug build-release test tier1-width clippy doc pipeline-check"

QUICK=0
STAGES=""
while [[ $# -gt 0 ]]; do
    case "$1" in
        --quick) QUICK=1 ;;
        --stages)
            STAGES="${2:-}"
            shift
            ;;
        --stages=*) STAGES="${1#--stages=}" ;;
        *)
            echo "unknown argument: $1" >&2
            echo "usage: scripts/ci.sh [--quick] [--stages a,b,c]" >&2
            exit 2
            ;;
    esac
    shift
done
if [[ -n "$STAGES" ]]; then
    for s in ${STAGES//,/ }; do
        if [[ " $ALL_STAGES " != *" $s "* ]]; then
            echo "unknown stage '$s'; known stages: ${ALL_STAGES//  / }" >&2
            exit 2
        fi
    done
fi

STAGE_NAMES=()
STAGE_RESULTS=()
STAGE_TIMES=()
FAILED=0

# Is this stage in the --stages selection (or is there no selection)?
want() { # name
    [[ -z "$STAGES" ]] || [[ ",$STAGES," == *",$1,"* ]]
}

record() { # name result time
    STAGE_NAMES+=("$1")
    STAGE_RESULTS+=("$2")
    STAGE_TIMES+=("${3:--}")
    if [[ "$2" == FAIL ]]; then
        FAILED=1
    fi
}

skip() { # name reason
    echo "==> $1: $2; skipping"
    record "$1" SKIP -
}

# Runs one stage under a wall-clock stopwatch. Deselected stages (via
# --stages) are recorded as SKIP without running anything.
run_stage() { # name command...
    local name=$1
    shift
    if ! want "$name"; then
        skip "$name" "not in --stages selection"
        return 0
    fi
    echo "==> ${name}: $*"
    local t0 t1 rc
    t0=$(date +%s%N)
    "$@"
    rc=$?
    t1=$(date +%s%N)
    local secs
    secs=$(awk -v a="$t0" -v b="$t1" 'BEGIN { printf "%.1fs", (b - a) / 1e9 }')
    if [[ $rc -eq 0 ]]; then
        record "$name" PASS "$secs"
    else
        record "$name" FAIL "$secs"
    fi
}

# --- Stage: rustfmt (skipped when the component is not installed) ---------
if [[ $QUICK -eq 0 ]]; then
    if ! want fmt; then
        skip "fmt" "not in --stages selection"
    elif cargo fmt --version >/dev/null 2>&1; then
        run_stage "fmt" cargo fmt --all -- --check
    else
        skip "fmt" "rustfmt not installed"
    fi
fi

# --- Stage: builds --------------------------------------------------------
run_stage "build-debug" cargo build --offline --workspace
if [[ $QUICK -eq 0 ]]; then
    run_stage "build-release" cargo build --offline --release --workspace
fi

# --- Stage: tests ---------------------------------------------------------
run_stage "test" cargo test -q --offline --workspace

if [[ $QUICK -eq 0 ]]; then
    # --- Stage: tier-1 width ----------------------------------------------
    # The literal tier-1 command (ROADMAP.md) must cover the crates, not only
    # the umbrella package: root `default-members` is what makes it so. It
    # also runs the CLI contract (crates/autoblox/tests/cli_contract.rs), the
    # end-to-end checks of the `autoblox` binary against scripts/golden/.
    tier1_width() {
        local out passed
        out=$(cargo build --release && cargo test -q 2>&1) || {
            echo "$out" | tail -n 40
            return 1
        }
        passed=$(echo "$out" | awk '/^test result:/ { n += $4 } END { print n + 0 }')
        echo "tier-1 ran $passed passing tests"
        [[ $passed -ge 511 ]]
    }
    run_stage "tier1-width" tier1_width

    # --- Stage: clippy ----------------------------------------------------
    if ! want clippy; then
        skip "clippy" "not in --stages selection"
    elif cargo clippy --version >/dev/null 2>&1; then
        run_stage "clippy" cargo clippy --offline --workspace --all-targets -- -D warnings
    else
        skip "clippy" "not installed"
    fi

    # --- Stage: docs (warnings are errors) --------------------------------
    doc_gate() {
        RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace
    }
    run_stage "doc" doc_gate

    # --- Stage: pipeline check --------------------------------------------
    # The end-to-end benchmark (bench_pipeline/, a package of its own) must
    # pass its unit tests and run all four workloads, untraced and traced,
    # at smoke sizes with every output check green: request conservation,
    # GC/fold pressure, fingerprints equal across units, the ledger's
    # self-check. `--check` takes ~12 s; the package builds into its own
    # bench_pipeline/target. Then each workload's `--check --seed 7`
    # fingerprint (FNV-1a over every exact simulated result) is diffed
    # against the golden: a change that claims only host speed must not
    # move one.
    PIPELINE_GOLDEN=scripts/golden/pipeline-check.fingerprints
    pipeline_fingerprints() {
        local w
        for w in tune_read_homog tune_write_hybrid search_many_short sim_sweep; do
            echo "$w $(cargo run -q --release --offline \
                --manifest-path bench_pipeline/Cargo.toml -- \
                --workload "$w" --check --seed 7 --trace 0 2>&1 >/dev/null \
                | awk '$1 == "fingerprint" { print $2 }')"
        done
    }
    pipeline_check() {
        local dir rc=0
        dir=$(mktemp -d /tmp/autoblox-ci-pipeline.XXXXXX) || return 1
        cargo test -q --release --offline \
            --manifest-path bench_pipeline/Cargo.toml || rc=1
        if ! cargo run -q --release --offline \
                --manifest-path bench_pipeline/Cargo.toml -- \
                --all --check --out "$dir/check.json" \
                >/dev/null 2>"$dir/check.err"; then
            echo "bench_pipeline --all --check failed:"
            tail -20 "$dir/check.err"
            rc=1
        fi
        pipeline_fingerprints >"$dir/fingerprints"
        if ! diff -u "$PIPELINE_GOLDEN" "$dir/fingerprints"; then
            echo "bench_pipeline fingerprints moved: simulated results changed." \
                 "If that is intended, regenerate the golden with:"
            echo "  for w in tune_read_homog tune_write_hybrid search_many_short sim_sweep;" \
                 "do echo \"\$w \$(cargo run -q --release --offline" \
                 "--manifest-path bench_pipeline/Cargo.toml -- --workload \$w --check" \
                 "--seed 7 --trace 0 2>&1 >/dev/null | awk '\$1 == \"fingerprint\" { print \$2 }')\";" \
                 "done > $PIPELINE_GOLDEN"
            rc=1
        fi
        rm -rf "$dir"
        return $rc
    }
    run_stage "pipeline-check" pipeline_check
fi

# --- Summary --------------------------------------------------------------
echo
echo "ci summary:"
echo "  -----------------------------------"
for i in "${!STAGE_NAMES[@]}"; do
    printf "  %-20s %-4s %8s\n" \
        "${STAGE_NAMES[$i]}" "${STAGE_RESULTS[$i]}" "${STAGE_TIMES[$i]}"
done
echo "  -----------------------------------"

if [[ $FAILED -ne 0 ]]; then
    echo "ci FAILED"
    exit 1
fi
echo "ci ok"
