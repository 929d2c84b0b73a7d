//! The model observatory: the model section of `autoblox explain`.
//!
//! Where the bottleneck bars answer "where did this run's simulated time
//! go?", this module answers "what did the surrogate believe, and should we
//! trust it?" Two views over the per-iteration model fields the tuner
//! records:
//!
//! - **calibration** — z-scores of realized grades under the surrogate's
//!   predictive distribution, ±1σ/±2σ coverage, RMSE, and mean NLPD;
//! - **decision provenance** — the explore/exploit decomposition of each
//!   chosen candidate's acquisition value and its margin over the runner-up.
//!
//! Everything here is a pure function of a folded [`RunReport`]: no
//! clocks, no environment, so the model section is bit-identical whenever
//! its inputs are — the determinism suite asserts this across thread
//! counts. Rendering lives with the rest of the single-report view in
//! [`crate::explain`].

use crate::telemetry::RunReport;
use crate::tuner::IterationRecord;
use mlkit::gpr::Prediction;
use serde::{Deserialize, Serialize};

/// Rolling calibration summary of a surrogate's predictions against the
/// grades validation later realized.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CalibrationSummary {
    /// Calibrated iterations: a surrogate prediction existed for the chosen
    /// candidate and validation realized a grade for it.
    pub points: u64,
    /// Fraction of calibrated iterations with `|z| <= 1` (a well-calibrated
    /// Gaussian predicts ~0.68).
    pub coverage_1s: f64,
    /// Fraction with `|z| <= 2` (~0.95 when well-calibrated).
    pub coverage_2s: f64,
    /// Root-mean-square error of the predicted means.
    pub rmse: f64,
    /// Mean negative log predictive density (lower is better).
    pub mean_nlpd: f64,
    /// Mean absolute z-score.
    pub mean_abs_z: f64,
}

/// One iteration's decision provenance.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DecisionPoint {
    /// 1-based outer-iteration index.
    pub iteration: u64,
    /// Exploration share of the chosen UCB (`σ / (|μ| + σ)` at β = 1).
    pub explore_share: f64,
    /// Exploitation share (`|μ| / (|μ| + σ)`).
    pub exploit_share: f64,
    /// Chosen UCB minus the runner-up's UCB (0 without a runner-up).
    pub decision_margin: f64,
    /// Predicted grade mean for the chosen candidate.
    pub predicted_mean: f64,
    /// Predicted grade standard deviation.
    pub predicted_std: f64,
    /// Grade validation realized (meaningful only when `calibrated`).
    pub realized_grade: f64,
    /// Whether this iteration produced a prediction/realization pair.
    pub calibrated: bool,
    /// Standardized residual of the realized grade (0 when uncalibrated).
    pub z: f64,
}

/// The model fingerprint of one recorded tuning run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ModelRun {
    /// Target workload name.
    pub workload: String,
    /// Iterations the run executed.
    pub iterations: u64,
    /// The run's final best grade (from its `tune` line).
    pub best_grade: f64,
    /// Calibration over this run's iterations.
    pub calibration: CalibrationSummary,
    /// Per-iteration decision provenance, in iteration order.
    pub timeline: Vec<DecisionPoint>,
    /// Mean exploration share over iterations with a prediction.
    pub mean_explore_share: f64,
    /// Kernel lengthscale of the last fitted GPR (0 when none fitted or the
    /// surrogate was not a GPR).
    pub kernel_length_scale: f64,
}

/// The model document `explain --json` nests: per-run model fingerprints
/// plus aggregates.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ModelReport {
    /// One fingerprint per recorded tuning run.
    pub runs: Vec<ModelRun>,
    /// Calibration pooled over every run's iterations.
    pub calibration: CalibrationSummary,
    /// Mean exploration share pooled over every run.
    pub mean_explore_share: f64,
}

/// The predictive distribution `N(mean, std^2)` an iteration record
/// describes; its `z_score` is the one calibration residual `explain`
/// reads.
fn prediction(mean: f64, std: f64) -> Prediction {
    Prediction {
        mean,
        variance: std * std,
    }
}

/// Pools a calibration summary over iteration records (only `calibrated`
/// ones contribute).
pub fn calibration_of(records: &[IterationRecord]) -> CalibrationSummary {
    let mut n = 0u64;
    let mut within_1 = 0u64;
    let mut within_2 = 0u64;
    let mut se_sum = 0.0;
    let mut nlpd_sum = 0.0;
    let mut abs_z_sum = 0.0;
    for r in records.iter().filter(|r| r.calibrated) {
        let p = prediction(r.predicted_mean, r.predicted_std);
        let z = p.z_score(r.realized_grade);
        n += 1;
        if z.abs() <= 1.0 {
            within_1 += 1;
        }
        if z.abs() <= 2.0 {
            within_2 += 1;
        }
        let resid = r.realized_grade - r.predicted_mean;
        se_sum += resid * resid;
        nlpd_sum += p.nlpd(r.realized_grade);
        abs_z_sum += z.abs();
    }
    if n == 0 {
        return CalibrationSummary::default();
    }
    let nf = n as f64;
    CalibrationSummary {
        points: n,
        coverage_1s: within_1 as f64 / nf,
        coverage_2s: within_2 as f64 / nf,
        rmse: (se_sum / nf).sqrt(),
        mean_nlpd: nlpd_sum / nf,
        mean_abs_z: abs_z_sum / nf,
    }
}

fn timeline_of(records: &[IterationRecord]) -> Vec<DecisionPoint> {
    records
        .iter()
        .map(|r| {
            let z = if r.calibrated {
                prediction(r.predicted_mean, r.predicted_std).z_score(r.realized_grade)
            } else {
                0.0
            };
            DecisionPoint {
                iteration: r.iteration,
                explore_share: r.explore_share,
                exploit_share: r.exploit_share,
                decision_margin: r.decision_margin,
                predicted_mean: r.predicted_mean,
                predicted_std: r.predicted_std,
                realized_grade: r.realized_grade,
                calibrated: r.calibrated,
                z,
            }
        })
        .collect()
}

fn mean_explore_share(records: &[IterationRecord]) -> f64 {
    let shares: Vec<f64> = records
        .iter()
        .filter(|r| r.explore_share + r.exploit_share > 0.0)
        .map(|r| r.explore_share)
        .collect();
    if shares.is_empty() {
        0.0
    } else {
        shares.iter().sum::<f64>() / shares.len() as f64
    }
}

/// Extracts the model fingerprint of a run report.
pub fn inspect(report: &RunReport) -> ModelReport {
    let runs: Vec<ModelRun> = report
        .tuner
        .iter()
        .map(|t| {
            let kernel_length_scale = t
                .records
                .iter()
                .rev()
                .map(|r| r.kernel_length_scale)
                .find(|&l| l > 0.0)
                .unwrap_or(0.0);
            ModelRun {
                workload: t.workload.clone(),
                iterations: t.iterations,
                best_grade: t.best_grade,
                calibration: calibration_of(&t.records),
                timeline: timeline_of(&t.records),
                mean_explore_share: mean_explore_share(&t.records),
                kernel_length_scale,
            }
        })
        .collect();
    let pooled: Vec<IterationRecord> = report
        .tuner
        .iter()
        .flat_map(|t| t.records.iter().cloned())
        .collect();
    ModelReport {
        calibration: calibration_of(&pooled),
        mean_explore_share: mean_explore_share(&pooled),
        runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::TunerRunTelemetry;

    fn record(iteration: u64, mean: f64, std: f64, realized: f64) -> IterationRecord {
        let denom = mean.abs() + std;
        IterationRecord {
            iteration,
            predicted_mean: mean,
            predicted_std: std,
            realized_grade: realized,
            calibrated: true,
            explore_share: if denom > 0.0 { std / denom } else { 0.0 },
            exploit_share: if denom > 0.0 { mean.abs() / denom } else { 0.0 },
            decision_margin: 0.01,
            ..Default::default()
        }
    }

    fn report_with(records: Vec<IterationRecord>) -> RunReport {
        RunReport {
            tuner: vec![TunerRunTelemetry {
                workload: "database".to_string(),
                iterations: records.len() as u64,
                records,
                ..Default::default()
            }],
            ..Default::default()
        }
    }

    #[test]
    fn calibration_counts_coverage() {
        // Realized grades at 0.5σ, 1.5σ, and 3σ from their means.
        let records = vec![
            record(1, 0.0, 1.0, 0.5),
            record(2, 0.0, 1.0, 1.5),
            record(3, 0.0, 1.0, 3.0),
        ];
        let c = calibration_of(&records);
        assert_eq!(c.points, 3);
        assert!((c.coverage_1s - 1.0 / 3.0).abs() < 1e-12);
        assert!((c.coverage_2s - 2.0 / 3.0).abs() < 1e-12);
        assert!(c.rmse > 0.0 && c.mean_nlpd.is_finite());
        // Uncalibrated records contribute nothing.
        let mut uncal = record(4, 0.0, 1.0, 9.0);
        uncal.calibrated = false;
        let mut with_uncal = records.clone();
        with_uncal.push(uncal);
        assert_eq!(calibration_of(&with_uncal), c);
    }

    #[test]
    fn coverage_stays_in_unit_interval() {
        for spread in [0.0, 0.1, 1.0, 10.0] {
            let records: Vec<IterationRecord> = (1..=8)
                .map(|i| record(i, 0.2, 0.05, 0.2 + spread * (i as f64 - 4.0) / 8.0))
                .collect();
            let c = calibration_of(&records);
            assert!((0.0..=1.0).contains(&c.coverage_1s), "{}", c.coverage_1s);
            assert!((0.0..=1.0).contains(&c.coverage_2s), "{}", c.coverage_2s);
            assert!(c.coverage_2s >= c.coverage_1s);
        }
    }

    #[test]
    fn inspect_builds_runs_and_aggregates() {
        let report = report_with(vec![record(1, 0.0, 1.0, 0.5), record(2, 0.0, 1.0, 1.5)]);
        let m = inspect(&report);
        assert_eq!(m.runs.len(), 1);
        assert_eq!(m.runs[0].workload, "database");
        assert_eq!(m.runs[0].timeline.len(), 2);
        assert_eq!(m.calibration, m.runs[0].calibration);
        assert!(m.mean_explore_share > 0.0);
    }

    #[test]
    fn render_is_deterministic() {
        use crate::explain::{explain, render};
        let doc = explain(&report_with(vec![record(1, 0.0, 1.0, 0.5)]));
        assert_eq!(render(&doc), render(&doc));
        assert!(render(&doc).contains("within 1σ"));
        let empty = explain(&RunReport::default());
        assert!(render(&empty).contains("no tuning runs"));
    }

    #[test]
    fn calibration_comes_from_the_iteration_records() {
        let a = report_with(vec![record(1, 0.0, 1.0, 0.5), record(2, 0.0, 1.0, 0.5)]);
        let b = report_with(vec![record(1, 0.0, 1.0, 3.0), record(2, 0.0, 1.0, 3.0)]);
        let (ca, cb) = (inspect(&a).calibration, inspect(&b).calibration);
        assert_eq!((ca.points, cb.points), (2, 2));
        // Realized grades 0.5σ off are all covered, 3σ off none.
        assert_eq!(ca.coverage_1s, 1.0);
        assert_eq!(cb.coverage_1s, 0.0);
        assert!((ca.rmse - 0.5).abs() < 1e-12, "{}", ca.rmse);
        assert!((cb.rmse - 3.0).abs() < 1e-12, "{}", cb.rmse);
    }

    #[test]
    fn model_json_round_trips() {
        let report = report_with(vec![record(1, 0.0, 1.0, 0.5)]);
        let m = inspect(&report);
        let json = serde_json::to_string(&m).expect("serializes");
        let back: ModelReport = serde_json::from_str(&json).expect("parses");
        assert_eq!(m, back);
    }
}
