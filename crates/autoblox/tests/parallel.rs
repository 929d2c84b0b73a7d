//! Parallel-engine invariants: fan-out must change wall-clock time only —
//! never results, and never the number of simulator runs.

use autoblox::constraints::Constraints;
use autoblox::parallel;
use autoblox::pruning::coarse_prune;
use autoblox::tuner::{SurrogateKind, Tuner, TunerOptions};
use autoblox::validator::{Validator, ValidatorOptions};
use iotrace::gen::WorkloadKind;
use ssdsim::config::{presets, SsdConfig};
use std::sync::Mutex;

/// Held by every test that sets the process-wide thread override, so no two
/// of them race over it.
static THREAD_OVERRIDE: Mutex<()> = Mutex::new(());

fn quick_validator(events: usize) -> Validator {
    Validator::new(ValidatorOptions {
        trace_events: events,
        ..Default::default()
    })
}

/// One full pruning + tuning pass, reduced to comparable JSON (f64s must be
/// bit-identical for the serializations to match).
fn pipeline_fingerprint() -> (String, String, u64) {
    let v = quick_validator(300);
    let space = autoblox::ParamSpace::with_params(&[
        "channel_count",
        "data_cache_size",
        "read_latency",
        "init_delay",
    ]);
    let coarse = coarse_prune(&space, &SsdConfig::default(), WorkloadKind::Database, &v);
    let opts = TunerOptions {
        max_iterations: 4,
        sgd_iterations: 2,
        convergence_window: 3,
        non_target: vec![WorkloadKind::WebSearch, WorkloadKind::Fiu],
        ..Default::default()
    };
    let tuner = Tuner::new(Constraints::paper_default(), &v, opts);
    let out = tuner.tune(WorkloadKind::Database, &presets::intel_750(), &[], None);
    (
        serde_json::to_string(&coarse).expect("coarse serializes"),
        serde_json::to_string(&out).expect("outcome serializes"),
        v.simulator_runs(),
    )
}

/// Coarse pruning and a short tuning run produce identical results — and
/// identical simulator-run counts — at 1 thread and at 4 threads.
#[test]
fn pipeline_is_deterministic_across_thread_counts() {
    let _override = THREAD_OVERRIDE.lock().unwrap_or_else(|e| e.into_inner());
    parallel::set_max_threads(1);
    let sequential = pipeline_fingerprint();
    parallel::set_max_threads(4);
    let parallel4 = pipeline_fingerprint();
    parallel::set_max_threads(0);
    assert_eq!(
        sequential.0, parallel4.0,
        "coarse_prune must not depend on the thread count"
    );
    assert_eq!(
        sequential.1, parallel4.1,
        "Tuner::tune must not depend on the thread count"
    );
    assert_eq!(
        sequential.2, parallel4.2,
        "the simulator-run count must not depend on the thread count"
    );
}

/// A full-space tune long enough to cross the surrogate's scheduled refit
/// (`GPR_RETUNE_EVERY`, 16 observations) with the paper's ten SGD steps,
/// serialized with every iteration record, plus the charged simulator runs.
fn walk_fingerprint(surrogate: SurrogateKind, iterations: usize) -> (String, u64) {
    let v = quick_validator(200);
    let opts = TunerOptions {
        max_iterations: iterations,
        // Convergence never fires: every tune runs all its iterations.
        convergence_window: iterations + 1,
        non_target: vec![WorkloadKind::WebSearch],
        surrogate,
        ..Default::default()
    };
    assert_eq!(opts.sgd_iterations, 10);
    let tuner = Tuner::new(Constraints::paper_default(), &v, opts);
    let out = tuner.tune(WorkloadKind::Database, &presets::intel_750(), &[], None);
    assert_eq!(out.iterations, iterations);
    assert!(out.iteration_records.iter().any(|r| r.sgd_steps > 1));
    (
        serde_json::to_string(&out).expect("outcome serializes"),
        v.simulator_runs(),
    )
}

/// Each SGD step is one pool batch split into one run of parameters per
/// thread, so the split changes with the width: the walk must not. Every
/// iteration record (candidates, steps, predictions, decision margins) and
/// the charged runs are bit-identical at 1 to 4 threads, for the GPR walk
/// and the neural ablation.
#[test]
fn walk_is_deterministic_across_pool_widths() {
    let _override = THREAD_OVERRIDE.lock().unwrap_or_else(|e| e.into_inner());
    let cases = [
        (SurrogateKind::Gpr, 24, &[1, 2, 3, 4][..]),
        (SurrogateKind::Neural, 6, &[1, 3][..]),
    ];
    for (surrogate, iterations, widths) in cases {
        let mut runs = widths.iter().map(|&threads| {
            parallel::set_max_threads(threads);
            (threads, walk_fingerprint(surrogate, iterations))
        });
        let (_, sequential) = runs.next().expect("a width");
        for (threads, parallel) in runs {
            assert_eq!(
                parallel.0, sequential.0,
                "{surrogate:?}: the outcome at {threads} threads differs"
            );
            assert_eq!(
                parallel.1, sequential.1,
                "{surrogate:?}: charged runs at {threads} threads differ"
            );
        }
    }
    parallel::set_max_threads(0);
}

/// Concurrency smoke test: many threads hammering one shared validator over
/// the same working set must agree with a sequential run on every
/// measurement, and the per-key in-flight deduplication must keep the
/// simulator-run count exactly sequential.
#[test]
fn hammered_validator_matches_sequential() {
    let configs: Vec<SsdConfig> = (0..5)
        .map(|i| SsdConfig {
            channel_count: 2 + 2 * i,
            ..SsdConfig::default()
        })
        .collect();
    let kinds = [WorkloadKind::Database, WorkloadKind::WebSearch];

    let sequential = quick_validator(200);
    for cfg in &configs {
        for &k in &kinds {
            sequential.evaluate(cfg, k);
        }
    }
    let expected_runs = sequential.simulator_runs();
    assert_eq!(expected_runs, (configs.len() * kinds.len()) as u64);

    let shared = quick_validator(200);
    std::thread::scope(|scope| {
        for worker in 0..8 {
            let configs = &configs;
            let kinds = &kinds;
            let shared = &shared;
            let sequential = &sequential;
            scope.spawn(move || {
                // Each worker walks the working set from a different offset
                // so cold-cache collisions on the same key are guaranteed.
                for step in 0..configs.len() * kinds.len() {
                    let i = (step + worker) % (configs.len() * kinds.len());
                    let cfg = &configs[i / kinds.len()];
                    let k = kinds[i % kinds.len()];
                    assert_eq!(shared.evaluate(cfg, k), sequential.evaluate(cfg, k));
                }
            });
        }
    });
    assert_eq!(
        shared.simulator_runs(),
        expected_runs,
        "concurrent cache misses on one key must run the simulator once"
    );
}

/// The explicit-thread-count mapper must be order-preserving and agree with
/// its own sequential path when driving real validator work.
#[test]
fn parallel_map_evaluations_match_sequential_order() {
    let v = quick_validator(200);
    let kinds = vec![
        WorkloadKind::Database,
        WorkloadKind::WebSearch,
        WorkloadKind::Fiu,
        WorkloadKind::KvStore,
    ];
    let cfg = SsdConfig::default();
    let par = parallel::parallel_map_with(4, kinds.clone(), |k| v.evaluate(&cfg, k));
    let seq: Vec<_> = kinds.iter().map(|&k| v.evaluate(&cfg, k)).collect();
    assert_eq!(par, seq);
}
