//! Model-observatory invariants: with telemetry enabled (so the importance
//! sweep and timings are collected), the serialized tuning trajectory —
//! including every new calibration/provenance field — must stay
//! byte-identical across thread counts and speculation depths once the
//! wall-clock timings are normalized out; and the derived calibration and
//! importance summaries must be well-formed for arbitrary records.

use autoblox::constraints::Constraints;
use autoblox::model_obs;
use autoblox::parallel;
use autoblox::tuner::{IterationRecord, Tuner, TunerOptions};
use autoblox::validator::{Validator, ValidatorOptions};
use iotrace::gen::WorkloadKind;
use proptest::prelude::*;
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

/// One short tuning run at batch width `k`, with the two wall-clock
/// timings zeroed (telemetry is on, so they are collected and
/// host-dependent). Everything else in the outcome — including predicted
/// mean/σ, calibration pairs, explore/exploit shares, decision margins,
/// and the importance sweep — must be bit-identical across the grid.
fn fingerprint(k: usize) -> (String, Vec<IterationRecord>) {
    let v = quick_validator();
    let tuner = Tuner::new(Constraints::paper_default(), &v, opts(k));
    let mut outcome = tuner.tune(WorkloadKind::Database, &presets::intel_750(), &[], None);
    for r in &mut outcome.iteration_records {
        r.wall_ns = 0;
        r.surrogate_fit_ns = 0;
    }
    let records = outcome.iteration_records.clone();
    (
        serde_json::to_string(&outcome).expect("outcome serializes"),
        records,
    )
}

/// The tentpole acceptance criterion: the model-observatory fields are
/// byte-identical at threads {1, 4} x speculation {1, 4}, and they are
/// substantive (real predictions, calibration pairs, normalized importance
/// sweeps) rather than vacuously zero.
///
/// This is the only test in this binary that touches the process-wide
/// thread override and telemetry switch, so it cannot race other tests
/// over them.
#[test]
fn model_records_are_thread_and_speculation_invariant() {
    autoblox::telemetry::set_enabled(true);
    autoblox::telemetry::global().clear();
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
        assert_eq!(base.0, run.0, "model-observatory state diverged at {label}");
    }
    parallel::set_max_threads(0);
    autoblox::telemetry::set_enabled(false);

    // Substance: the invariance above is not an equality of empty runs.
    let records = &base.1;
    assert!(
        records.iter().any(|r| r.calibrated),
        "no iteration ever recorded a calibration pair"
    );
    assert!(
        records.iter().any(|r| r.predicted_std > 0.0),
        "no iteration carried a surrogate prediction"
    );
    assert!(
        records.iter().any(|r| !r.importance.is_empty()),
        "telemetry was on, so the importance sweep must have run"
    );
    for r in records {
        if !r.importance.is_empty() {
            let sum: f64 = r.importance.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "importance must normalize: {sum}");
            assert!(r.importance.iter().all(|&x| x >= 0.0));
            assert!(r.kernel_length_scale > 0.0);
        }
        if r.predicted_std > 0.0 {
            assert!(
                (r.explore_share + r.exploit_share - 1.0).abs() < 1e-9,
                "UCB shares must decompose the decision"
            );
        }
    }
    // The derived calibration summary is coherent with the raw records.
    let cal = model_obs::calibration_of(records);
    assert_eq!(
        cal.points,
        records.iter().filter(|r| r.calibrated).count() as u64
    );
    assert!((0.0..=1.0).contains(&cal.coverage_1s));
    assert!((0.0..=1.0).contains(&cal.coverage_2s));
    assert!(cal.coverage_2s >= cal.coverage_1s);
    assert!(cal.rmse.is_finite() && cal.mean_nlpd.is_finite());
}

fn record(mean: f64, std: f64, realized: f64, calibrated: bool) -> IterationRecord {
    IterationRecord {
        predicted_mean: mean,
        predicted_std: std,
        realized_grade: realized,
        calibrated,
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Coverage fractions stay inside [0, 1] (with ±2σ at least ±1σ) for
    /// arbitrary prediction/realization pairs, including degenerate σ = 0.
    #[test]
    fn calibration_coverage_stays_in_unit_interval(
        pairs in prop::collection::vec(
            (-2.0f64..2.0, 0.0f64..0.5, -2.0f64..2.0, any::<bool>()),
            0..24,
        ),
    ) {
        let records: Vec<IterationRecord> = pairs
            .iter()
            .map(|&(m, s, r, c)| record(m, s, r, c))
            .collect();
        let cal = model_obs::calibration_of(&records);
        prop_assert!((0.0..=1.0).contains(&cal.coverage_1s));
        prop_assert!((0.0..=1.0).contains(&cal.coverage_2s));
        prop_assert!(cal.coverage_2s >= cal.coverage_1s);
        prop_assert!(cal.points <= records.len() as u64);
        if cal.points > 0 {
            prop_assert!(cal.rmse.is_finite());
            prop_assert!(cal.mean_nlpd.is_finite());
            prop_assert!(cal.mean_abs_z >= 0.0);
        }
    }

    /// Averaged importance vectors are a probability distribution: every
    /// weight non-negative, summing to 1 whenever any input sweep was
    /// non-empty.
    #[test]
    fn importance_normalizes_for_arbitrary_sweeps(
        sweeps in prop::collection::vec(
            prop::collection::vec(0.0f64..10.0, 0..6),
            1..8,
        ),
    ) {
        let records: Vec<IterationRecord> = sweeps
            .iter()
            .map(|w| IterationRecord {
                importance: w.clone(),
                ..Default::default()
            })
            .collect();
        let ranked = model_obs::averaged_importance(&records);
        prop_assert!(ranked.iter().all(|p| p.importance >= 0.0));
        let total: f64 = ranked.iter().map(|p| p.importance).sum();
        // Sweeps whose length disagrees with the first non-empty one are
        // skipped by the averager, so only same-length mass must normalize.
        let first_len = sweeps.iter().find(|w| !w.is_empty()).map(Vec::len);
        let any_mass = first_len.is_some_and(|len| {
            sweeps
                .iter()
                .filter(|w| w.len() == len)
                .any(|w| w.iter().sum::<f64>() > 1e-12)
        });
        if any_mass {
            prop_assert!((total - 1.0).abs() < 1e-9, "total {total}");
        }
        // Ranking is descending.
        for pair in ranked.windows(2) {
            prop_assert!(pair[0].importance >= pair[1].importance - 1e-12);
        }
    }
}
