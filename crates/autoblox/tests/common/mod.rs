//! The short in-process tune that `speculation.rs` and `model_obs.rs`
//! repeat across thread counts and speculation depths.

use autoblox::constraints::Constraints;
use autoblox::tuner::{IterationRecord, Tuner, TunerOptions};
use autoblox::validator::{Validator, ValidatorOptions, ValidatorStats};
use iotrace::gen::WorkloadKind;
use ssdsim::config::presets;

/// One short database tune at speculation depth `k`: the outcome as JSON
/// with the wall-clock fields that telemetry fills in zeroed (f64s must be
/// bit-identical for two serializations to match), its iteration records
/// and the validator's stats.
pub fn short_tune(k: usize) -> (String, Vec<IterationRecord>, ValidatorStats) {
    let v = Validator::new(ValidatorOptions {
        trace_events: 300,
        ..Default::default()
    });
    let opts = TunerOptions {
        max_iterations: 6,
        sgd_iterations: 3,
        convergence_window: 4,
        non_target: vec![WorkloadKind::WebSearch],
        speculative_batch: k,
        ..Default::default()
    };
    let tuner = Tuner::new(Constraints::paper_default(), &v, opts);
    let mut outcome = tuner.tune(WorkloadKind::Database, &presets::intel_750(), &[], None);
    for r in &mut outcome.iteration_records {
        r.wall_ns = 0;
        r.surrogate_fit_ns = 0;
    }
    let json = serde_json::to_string(&outcome).unwrap();
    (json, outcome.iteration_records, v.stats())
}
