//! Speculative-batch invariants: batched BO (`speculative_batch > 1`) must
//! be byte-identical to the strictly sequential loop at every combination of
//! batch width and thread count — same outcome, same simulator-run count —
//! and the speculation ledger must balance (every speculative run is either
//! consumed or reported wasted).

use autoblox::constraints::Constraints;
use autoblox::parallel;
use autoblox::tuner::{Tuner, TunerOptions};
use autoblox::validator::{Validator, ValidatorOptions, ValidatorStats};
use iotrace::gen::WorkloadKind;
use ssdsim::config::presets;

fn quick_validator() -> Validator {
    Validator::new(ValidatorOptions {
        trace_events: 300,
        ..Default::default()
    })
}

fn opts(k: usize) -> TunerOptions {
    TunerOptions {
        max_iterations: 6,
        sgd_iterations: 3,
        convergence_window: 4,
        non_target: vec![WorkloadKind::WebSearch],
        speculative_batch: k,
        ..Default::default()
    }
}

/// One short tuning run at batch width `k`: returns the outcome as
/// comparable JSON (f64s must be bit-identical for the serializations to
/// match), plus the simulator-run count and the validator stats.
fn fingerprint(k: usize) -> (String, u64, ValidatorStats) {
    let v = quick_validator();
    let tuner = Tuner::new(Constraints::paper_default(), &v, opts(k));
    let outcome = tuner.tune(WorkloadKind::Database, &presets::intel_750(), &[], None);
    (
        serde_json::to_string(&outcome).expect("outcome serializes"),
        v.simulator_runs(),
        v.stats(),
    )
}

/// The tentpole acceptance criterion: k=1 vs k=4, at 1 and at 4 threads,
/// produce byte-identical outcomes — speculation only moves simulator work
/// earlier in wall-clock time, never changes it.
///
/// This is the only test in this binary that touches the process-wide
/// thread override, so it cannot race other tests over it.
#[test]
fn batched_tuning_is_byte_identical_to_sequential() {
    parallel::set_max_threads(1);
    let base = fingerprint(1);
    let grid = [
        ("k=4 threads=1", 4, 1),
        ("k=1 threads=4", 1, 4),
        ("k=4 threads=4", 4, 4),
    ];
    for (label, k, threads) in grid {
        parallel::set_max_threads(threads);
        let run = fingerprint(k);
        assert_eq!(base.0, run.0, "TuningOutcome diverged at {label}");
        assert_eq!(base.1, run.1, "simulator-run count diverged at {label}");
        // Promoted speculations count as cache misses (the run happened,
        // just earlier), so the demand-side cache counters are exactly
        // sequential too.
        assert_eq!(base.2.cache_hits, run.2.cache_hits, "cache_hits at {label}");
        assert_eq!(
            base.2.cache_misses, run.2.cache_misses,
            "cache_misses at {label}"
        );
        // Ledger balance: every speculative run was consumed, reported
        // wasted, or (never here — no clear_cache) dropped.
        assert_eq!(
            run.2.speculative_runs,
            run.2.speculative_hits + run.2.speculative_wasted,
            "speculation ledger must balance at {label}"
        );
        if k > 1 {
            // The byte-identity above must not be vacuous: batched runs
            // really did speculate (and some prefetches were consumed).
            assert!(
                run.2.speculative_runs > 0,
                "batched run never speculated at {label}"
            );
            assert!(
                run.2.speculative_hits > 0,
                "no prefetch was ever consumed at {label}"
            );
        }
    }
    // The sequential baseline must not have speculated at all.
    assert_eq!(base.2.speculative_runs, 0);
    parallel::set_max_threads(0);
}
