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
#                                    doc, smoke stages)
#   scripts/ci.sh --quick            debug build + tests only
#   scripts/ci.sh --stages a,b,c     run only the named stages; everything
#                                    else is recorded as SKIP. Stage names are
#                                    the ones printed in the summary table.
set -uo pipefail
cd "$(dirname "$0")/.."

ALL_STAGES="fmt build-debug build-release test tier1-width clippy doc telemetry-smoke \
regression-gate explain-smoke place-smoke family-smoke trend-smoke pipeline-check"

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
    # the umbrella package: root `default-members` is what makes it so.
    tier1_width() {
        local out passed
        out=$(cargo build --release && cargo test -q 2>&1) || {
            echo "$out" | tail -n 40
            return 1
        }
        passed=$(echo "$out" | awk '/^test result:/ { n += $4 } END { print n + 0 }')
        echo "tier-1 ran $passed passing tests"
        [[ $passed -ge 544 ]]
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

    # --- Stage: telemetry smoke -------------------------------------------
    # A tiny end-to-end tuning run with --telemetry, then a schema check on
    # the emitted report (required keys + schema version) via the CLI's own
    # telemetry-check subcommand. Entirely offline and fast.
    telemetry_smoke() {
        local out
        out=$(mktemp /tmp/autoblox-ci-telemetry.XXXXXX.json) || return 1
        ./target/release/autoblox tune database \
            --iterations 2 --events 300 --telemetry "$out" \
            >/dev/null || { rm -f "$out"; return 1; }
        ./target/release/autoblox telemetry-check "$out" || { rm -f "$out"; return 1; }
        rm -f "$out"
    }
    if [[ -x ./target/release/autoblox ]]; then
        run_stage "telemetry-smoke" telemetry_smoke
    else
        skip "telemetry-smoke" "release binary missing (build failed?)"
    fi

    # --- Stage: regression gate -------------------------------------------
    # Re-runs the pinned-seed smoke tune and diffs its telemetry report
    # against the checked-in golden (scripts/golden/). `report diff` exits 3
    # when a checked metric (best grade, validation count, cache hit rate,
    # tail latency) regressed beyond its threshold. Time-based metrics are
    # ignored — wall clock is not comparable across machines. The run is
    # forced single-threaded so cache/dedup counters are exactly
    # reproducible.
    #
    # Batched speculative BO must be invisible in the same artifacts: a
    # 4-thread `--speculate 4` tune of the same problem must emit a
    # byte-identical tuned configuration to the single-threaded sequential
    # run, and its telemetry must diff clean against the same golden — cache
    # hit rate, validation counts, latency tails and bottleneck fractions all
    # match exactly, because speculative simulator runs are charged to the
    # shared accounting only at the moment the sequential loop would have
    # performed them.
    GOLDEN=scripts/golden/telemetry-database.json
    regression_gate() {
        local dir rc
        dir=$(mktemp -d /tmp/autoblox-ci-regression.XXXXXX) || return 1
        AUTOBLOX_THREADS=1 ./target/release/autoblox tune database \
            --iterations 3 --events 300 --speculate 1 \
            --telemetry "$dir/tel-seq.json" \
            >"$dir/config-seq.json" || { rm -rf "$dir"; return 1; }
        ./target/release/autoblox report diff "$GOLDEN" "$dir/tel-seq.json" --ignore-time \
            || { rm -rf "$dir"; return 1; }
        AUTOBLOX_THREADS=4 ./target/release/autoblox tune database \
            --iterations 3 --events 300 --speculate 4 \
            --telemetry "$dir/tel-spec.json" \
            >"$dir/config-spec.json" || { rm -rf "$dir"; return 1; }
        cmp -s "$dir/config-seq.json" "$dir/config-spec.json" \
            || { echo "speculative tuned configuration differs from sequential"; \
                 rm -rf "$dir"; return 1; }
        ./target/release/autoblox report diff "$GOLDEN" "$dir/tel-spec.json" \
            --ignore-time >/dev/null
        rc=$?
        [[ $rc -eq 0 ]] || echo "speculative telemetry drifted from the golden"
        rm -rf "$dir"
        return $rc
    }
    if [[ ! -x ./target/release/autoblox ]]; then
        skip "regression-gate" "release binary missing (build failed?)"
    elif [[ ! -f "$GOLDEN" ]]; then
        echo "==> regression-gate: golden report $GOLDEN absent; skipping"
        echo "    (regenerate with: AUTOBLOX_THREADS=1 autoblox tune database" \
             "--iterations 3 --events 300 --telemetry $GOLDEN)"
        record "regression-gate" SKIP -
    else
        run_stage "regression-gate" regression_gate
    fi

    # --- Stage: explain smoke ---------------------------------------------
    # End-to-end check of the single-report view: a telemetry-enabled tune
    # must emit a v3 report (version echoed by telemetry-check's stdout
    # verdict) and `explain` must render, from that one report, the
    # bottleneck shares and all three model views (calibration, parameter
    # importance, decision provenance), in human and JSON form. The pinned
    # 6-iteration smoke run lands at ±1σ coverage 0.80 (deterministic under
    # AUTOBLOX_THREADS=1), so `report trend` must pass at the default
    # calibration floor and exit 3 — the regression exit code — when the
    # floor is raised to 0.9 above the realized coverage. Two runs are
    # recorded so the trend window actually checks the metric (a single
    # run is advisory-only).
    # Capture CLI stdout before grepping it: `cli | grep -q` races — grep
    # exits at the first match, and the CLI can then die on a broken pipe,
    # which pipefail turns into a stage failure.
    explain_smoke() {
        local dir out captured rc
        dir=$(mktemp -d /tmp/autoblox-ci-explain.XXXXXX) || return 1
        out="$dir/cand.json"
        AUTOBLOX_THREADS=1 ./target/release/autoblox tune database \
            --iterations 6 --events 300 --speculate 1 \
            --db "$dir/runs.db" --telemetry "$out" \
            >/dev/null || { rm -rf "$dir"; return 1; }
        AUTOBLOX_THREADS=1 ./target/release/autoblox tune database \
            --iterations 6 --events 300 --speculate 1 \
            --db "$dir/runs.db" \
            >/dev/null || { rm -rf "$dir"; return 1; }
        captured=$(./target/release/autoblox telemetry-check "$out") \
            && grep -q '"autoblox.telemetry.v3"' <<<"$captured" \
            || { echo "telemetry-check did not echo the v3 schema"; rm -rf "$dir"; return 1; }
        captured=$(./target/release/autoblox explain "$out") \
            && grep -q 'dominant' <<<"$captured" \
            && grep -q 'calibration over' <<<"$captured" \
            && grep -q 'parameter importance' <<<"$captured" \
            && grep -q 'decision timeline' <<<"$captured" \
            || { echo "explain did not render the shares and all three model views"; \
                 rm -rf "$dir"; return 1; }
        captured=$(./target/release/autoblox explain --json "$out") \
            && grep -q '"autoblox.explain.v1"' <<<"$captured" \
            && grep -q '"timeline"' <<<"$captured" \
            || { echo "explain --json did not emit the explain schema with the model document"; \
                 rm -rf "$dir"; return 1; }
        ./target/release/autoblox report trend --db "$dir/runs.db" \
            >/dev/null 2>&1 \
            || { echo "trend flagged drift at the default calibration floor"; \
                 rm -rf "$dir"; return 1; }
        ./target/release/autoblox report trend --db "$dir/runs.db" \
            --min-calibration-coverage 0.9 >/dev/null 2>&1
        rc=$?
        [[ $rc -eq 3 ]] \
            || { echo "raised calibration floor must exit 3, got $rc"; \
                 rm -rf "$dir"; return 1; }
        rm -rf "$dir"
        return 0
    }
    if [[ -x ./target/release/autoblox ]]; then
        run_stage "explain-smoke" explain_smoke
    else
        skip "explain-smoke" "release binary missing (build failed?)"
    fi

    # --- Stage: placement smoke -------------------------------------------
    # Fleet placement must be deterministic at any thread count: `place` on a
    # pinned 4-tenant mix over 2 devices must emit byte-identical
    # PlacementReports at 1 and 4 threads (the report deliberately carries no
    # wall-clock or thread-count fields), and the single-threaded run's
    # telemetry must diff clean against the placement golden with only
    # wall-clock metrics ignored — simulator-run counts, cache hit rate,
    # latency tails, and bottleneck fractions are all pinned by the seeds.
    PLACE_GOLDEN=scripts/golden/placement-smoke.json
    PLACE_MIX="Database:1500:11,WebSearch:1500:11,KVStore:1500:11,BatchAnalytics:1500:11"
    place_smoke() {
        local dir rc
        dir=$(mktemp -d /tmp/autoblox-ci-place.XXXXXX) || return 1
        AUTOBLOX_THREADS=1 ./target/release/autoblox place --devices 2 \
            --traces "$PLACE_MIX" --json "$dir/p1.json" --telemetry "$dir/tel.json" \
            >/dev/null || { rm -rf "$dir"; return 1; }
        AUTOBLOX_THREADS=4 ./target/release/autoblox place --devices 2 \
            --traces "$PLACE_MIX" --json "$dir/p4.json" \
            >/dev/null || { rm -rf "$dir"; return 1; }
        cmp -s "$dir/p1.json" "$dir/p4.json" \
            || { echo "placement reports differ between 1 and 4 threads"; \
                 rm -rf "$dir"; return 1; }
        ./target/release/autoblox report diff "$PLACE_GOLDEN" "$dir/tel.json" \
            --ignore-time >/dev/null
        rc=$?
        [[ $rc -eq 0 ]] || echo "placement telemetry drifted from the golden"
        rm -rf "$dir"
        return $rc
    }
    if [[ ! -x ./target/release/autoblox ]]; then
        skip "place-smoke" "release binary missing (build failed?)"
    elif [[ ! -f "$PLACE_GOLDEN" ]]; then
        echo "==> place-smoke: golden report $PLACE_GOLDEN absent; skipping"
        echo "    (regenerate with: AUTOBLOX_THREADS=1 autoblox place --devices 2" \
             "--traces $PLACE_MIX --telemetry $PLACE_GOLDEN)"
        record "place-smoke" SKIP -
    else
        run_stage "place-smoke" place_smoke
    fi

    # --- Stage: family smoke ----------------------------------------------
    # The hybrid SLC/QLC device family end to end through the CLI: a pinned
    # short `--family hybrid --flash qlc` tune must emit byte-identical
    # tuned configurations at 1 and 4 threads, and its telemetry must diff
    # clean against the family golden with only wall-clock metrics ignored.
    # (That a store written under one family serves nothing to the other is
    # `tests/family.rs` in tier-1.)
    FAMILY_GOLDEN=scripts/golden/family-smoke.json
    family_smoke() {
        local dir rc
        dir=$(mktemp -d /tmp/autoblox-ci-family.XXXXXX) || return 1
        AUTOBLOX_THREADS=1 ./target/release/autoblox tune database \
            --iterations 3 --events 300 --flash qlc --family hybrid \
            --telemetry "$dir/tel.json" \
            >"$dir/config-t1.json" || { rm -rf "$dir"; return 1; }
        AUTOBLOX_THREADS=4 ./target/release/autoblox tune database \
            --iterations 3 --events 300 --flash qlc --family hybrid \
            >"$dir/config-t4.json" || { rm -rf "$dir"; return 1; }
        cmp -s "$dir/config-t1.json" "$dir/config-t4.json" \
            || { echo "hybrid tuned configuration differs between 1 and 4 threads"; \
                 rm -rf "$dir"; return 1; }
        grep -q '"HybridSlcCache"' "$dir/config-t1.json" \
            || { echo "tuned configuration lost the hybrid device family"; \
                 rm -rf "$dir"; return 1; }
        ./target/release/autoblox report diff "$FAMILY_GOLDEN" "$dir/tel.json" \
            --ignore-time >/dev/null
        rc=$?
        [[ $rc -eq 0 ]] || echo "hybrid telemetry drifted from the golden"
        rm -rf "$dir"
        return $rc
    }
    if [[ ! -x ./target/release/autoblox ]]; then
        skip "family-smoke" "release binary missing (build failed?)"
    elif [[ ! -f "$FAMILY_GOLDEN" ]]; then
        echo "==> family-smoke: golden report $FAMILY_GOLDEN absent; skipping"
        echo "    (regenerate with: AUTOBLOX_THREADS=1 autoblox tune database" \
             "--iterations 3 --events 300 --flash qlc --family hybrid" \
             "--telemetry $FAMILY_GOLDEN)"
        record "family-smoke" SKIP -
    else
        run_stage "family-smoke" family_smoke
    fi

    # --- Stage: trend smoke -----------------------------------------------
    # The run observatory end to end: two pinned smoke tunes recorded with
    # --db must land in the registry as run:Database:000001/000002, `report
    # trend` over that stable two-run history must pass (exit 0), and the
    # `watch --replay --json` snapshot of a journaled run must be
    # byte-identical between a 1-thread and a 4-thread run. Speculation is
    # pinned at depth 1 throughout: a thread-derived depth would emit
    # wasted-lookahead spans into the journal and make the line multiset
    # thread-dependent; the snapshot itself already excludes every
    # wall-clock and host field.
    trend_smoke() {
        local dir
        dir=$(mktemp -d /tmp/autoblox-ci-trend.XXXXXX) || return 1
        AUTOBLOX_THREADS=1 ./target/release/autoblox tune database \
            --iterations 2 --events 300 --speculate 1 --db "$dir/runs.db" \
            >/dev/null || { echo "recorded tune 1 failed"; rm -rf "$dir"; return 1; }
        AUTOBLOX_THREADS=1 ./target/release/autoblox tune database \
            --iterations 2 --events 300 --speculate 1 --db "$dir/runs.db" \
            >/dev/null || { echo "recorded tune 2 failed"; rm -rf "$dir"; return 1; }
        ./target/release/autoblox runs list --db "$dir/runs.db" >"$dir/list.txt" \
            || { echo "runs list failed"; rm -rf "$dir"; return 1; }
        { grep -q "run:Database:000001" "$dir/list.txt" && \
          grep -q "run:Database:000002" "$dir/list.txt"; } \
            || { echo "registry keys missing from runs list:"; \
                 cat "$dir/list.txt"; rm -rf "$dir"; return 1; }
        ./target/release/autoblox report trend --db "$dir/runs.db" --json \
            >"$dir/trend.json" \
            || { echo "report trend flagged drift on a stable history:"; \
                 cat "$dir/trend.json"; rm -rf "$dir"; return 1; }
        AUTOBLOX_THREADS=1 ./target/release/autoblox tune database \
            --iterations 2 --events 300 --speculate 1 \
            --journal "$dir/j1.jsonl" >/dev/null \
            || { rm -rf "$dir"; return 1; }
        AUTOBLOX_THREADS=4 ./target/release/autoblox tune database \
            --iterations 2 --events 300 --speculate 1 \
            --journal "$dir/j4.jsonl" >/dev/null \
            || { rm -rf "$dir"; return 1; }
        ./target/release/autoblox watch "$dir/j1.jsonl" --replay --json \
            >"$dir/w1.json" || { rm -rf "$dir"; return 1; }
        ./target/release/autoblox watch "$dir/j4.jsonl" --replay --json \
            >"$dir/w4.json" || { rm -rf "$dir"; return 1; }
        cmp -s "$dir/w1.json" "$dir/w4.json" \
            || { echo "watch snapshots differ between 1 and 4 threads:"; \
                 diff "$dir/w1.json" "$dir/w4.json" | head -10; \
                 rm -rf "$dir"; return 1; }
        rm -rf "$dir"
        return 0
    }
    if [[ -x ./target/release/autoblox ]]; then
        run_stage "trend-smoke" trend_smoke
    else
        skip "trend-smoke" "release binary missing (build failed?)"
    fi

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
