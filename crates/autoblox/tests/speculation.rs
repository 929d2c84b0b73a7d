//! Speculative-batch invariants at the library level: batched BO
//! (`speculative_batch > 1`) is byte-identical to the strictly sequential
//! loop at every batch width and thread count, the speculation ledger
//! balances, and look-ahead uses only spare pool width. The same claim through the binary is the `tune` row of the
//! CLI contract (`cli_contract.rs`).

mod common;

use autoblox::{parallel, telemetry};

/// k=1 vs k=4, at 1 and at 4 threads: the same outcome, simulator runs and
/// cache misses. Telemetry is on, so the cache counters are real; the
/// hits/dedup split is timing-dependent, only its sum is compared.
///
/// The only test in this binary, so nothing races it over the process-wide
/// thread override and telemetry switch.
#[test]
fn batched_tuning_is_byte_identical_to_sequential() {
    telemetry::set_enabled(true);
    parallel::set_max_threads(1);
    let (outcome, _, base) = common::short_tune(1);
    assert!(base.cache_misses > 0, "telemetry on, so misses are counted");
    assert_eq!(base.speculative_runs, 0, "the sequential loop speculated");
    for (label, k, threads) in [("k=4 t=1", 4, 1), ("k=1 t=4", 1, 4), ("k=4 t=4", 4, 4)] {
        parallel::set_max_threads(threads);
        let (run_outcome, _, run) = common::short_tune(k);
        assert_eq!(outcome, run_outcome, "TuningOutcome diverged at {label}");
        assert_eq!(base.simulator_runs, run.simulator_runs, "runs at {label}");
        assert_eq!(base.cache_misses, run.cache_misses, "misses at {label}");
        assert_eq!(
            base.cache_hits + base.dedup_waits,
            run.cache_hits + run.dedup_waits,
            "hits + dedup waits at {label}"
        );
        assert_eq!(
            run.speculative_runs,
            run.speculative_hits + run.speculative_wasted,
            "speculation ledger must balance at {label}"
        );
        // Each validation keeps two pool threads busy, so look-ahead only
        // runs where the pool has width to spare: not on one thread.
        if k > 1 && threads >= 4 {
            assert!(run.speculative_runs > 0, "never speculated at {label}");
            assert!(run.speculative_hits > 0, "no prefetch consumed at {label}");
        } else {
            assert_eq!(run.speculative_runs, 0, "speculated at {label}");
        }
    }
    parallel::set_max_threads(0);
    telemetry::set_enabled(false);
}
