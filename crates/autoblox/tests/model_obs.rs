//! Model-observatory invariants: with telemetry on (so the importance
//! sweep runs), the tuning trajectory is byte-identical across thread
//! counts and speculation depths once wall-clock timings are masked, and
//! its records are substantive; the derived summaries are well-formed for
//! arbitrary records. The same invariance through the binary is the `tune`
//! row of the CLI contract (`cli_contract.rs`).

mod common;

use autoblox::tuner::IterationRecord;
use autoblox::{model_obs, parallel, telemetry};
use proptest::prelude::*;

/// Threads {1, 4} x speculation {1, 4} record the same predictions,
/// calibration pairs, UCB shares and importance sweeps, and these are
/// real rather than vacuously zero.
///
/// The only test in this binary that touches the process-wide thread
/// override and telemetry switch, so nothing races it over them.
#[test]
fn model_records_are_thread_and_speculation_invariant() {
    telemetry::set_enabled(true);
    parallel::set_max_threads(1);
    let (base, records, _) = common::short_tune(1);
    for (label, k, threads) in [("k=4 t=1", 4, 1), ("k=1 t=4", 1, 4), ("k=4 t=4", 4, 4)] {
        parallel::set_max_threads(threads);
        let (run, _, _) = common::short_tune(k);
        assert_eq!(base, run, "model state diverged at {label}");
    }
    parallel::set_max_threads(0);
    telemetry::set_enabled(false);

    assert!(records.iter().any(|r| r.calibrated));
    assert!(records.iter().any(|r| r.predicted_std > 0.0));
    assert!(records.iter().any(|r| !r.importance.is_empty()));
    for r in &records {
        if !r.importance.is_empty() {
            let sum: f64 = r.importance.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "importance must normalize: {sum}");
            assert!(r.importance.iter().all(|&x| x >= 0.0));
            assert!(r.kernel_length_scale > 0.0);
        }
        if r.predicted_std > 0.0 {
            assert!((r.explore_share + r.exploit_share - 1.0).abs() < 1e-9);
        }
    }
    let cal = model_obs::calibration_of(&records);
    let calibrated = records.iter().filter(|r| r.calibrated).count() as u64;
    assert_eq!(cal.points, calibrated);
    assert!((0.0..=1.0).contains(&cal.coverage_1s));
    assert!(cal.coverage_2s >= cal.coverage_1s && cal.coverage_2s <= 1.0);
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
