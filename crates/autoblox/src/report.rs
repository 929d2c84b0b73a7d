//! The report core: one [`Summary`] of a run and the one bar every view
//! draws.
//!
//! [`Summary::of`] condenses a telemetry [`RunReport`] once — headline
//! numbers, tail latency, bottleneck attribution, the surrogate's
//! calibration. It is what `explain`, the one reader of a run report,
//! prints first and nests in its `--json` document.
//!
//! Both are pure functions of their inputs, so a summary is bit-identical
//! whenever its report is.

use crate::model_obs::{self, CalibrationSummary};
use crate::telemetry::RunReport;
use serde::{Deserialize, Serialize};
use ssdsim::report::HistogramPercentiles;
use ssdsim::BottleneckReport;

/// The compact record of one run.
///
/// [`Summary::of`] fills every field from the telemetry report alone.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// History family: the first tuned workload.
    pub category: String,
    /// Workloads the run tuned, in recording order.
    pub workloads: Vec<String>,
    /// Best grade over every recorded tuning run, `None` when none ran.
    pub best_grade: Option<f64>,
    /// Outer tuner iterations executed.
    pub iterations: u64,
    /// Charged simulator runs the invocation performed.
    pub simulator_runs: u64,
    /// Validator cache hits over all lookups (0 with no lookups).
    pub cache_hit_rate: f64,
    /// Tail-latency percentiles from the aggregated histogram.
    pub latency_percentiles: HistogramPercentiles,
    /// Bottleneck attribution aggregated over every simulator run.
    pub bottleneck: BottleneckReport,
    /// Surrogate calibration pooled over every tuning run's iterations.
    pub calibration: CalibrationSummary,
    /// Mean exploration share pooled over every tuning run.
    pub mean_explore_share: f64,
    /// Worker-pool thread limit in effect. Host-varying: excluded from the
    /// fingerprint, since the run's results are thread-invariant.
    pub threads: u64,
    /// Total simulate time, ns. Host-varying: excluded from the fingerprint.
    pub simulate_ns: u64,
    /// Wall time of the recorded pipeline phases, ns. Host-varying:
    /// excluded from the fingerprint.
    pub wall_ns: u64,
}

impl Summary {
    /// Summarises a parsed telemetry report — the only place a summary is
    /// assembled.
    pub fn of(report: &RunReport) -> Summary {
        let model = model_obs::inspect(report);
        let v = &report.validator;
        let lookups = v.cache_hits + v.cache_misses + v.dedup_waits;
        Summary {
            category: report
                .tuner
                .first()
                .map(|t| t.workload.clone())
                .unwrap_or_default(),
            workloads: report.tuner.iter().map(|t| t.workload.clone()).collect(),
            best_grade: report.tuner.iter().map(|t| t.best_grade).reduce(f64::max),
            iterations: report.tuner.iter().map(|t| t.iterations).sum(),
            simulator_runs: v.simulator_runs,
            cache_hit_rate: if lookups == 0 {
                0.0
            } else {
                v.cache_hits as f64 / lookups as f64
            },
            latency_percentiles: report.latency_percentiles,
            bottleneck: report.bottleneck,
            calibration: model.calibration,
            mean_explore_share: model.mean_explore_share,
            threads: report.threads,
            simulate_ns: v.simulate_ns,
            wall_ns: report.phases.iter().map(|p| p.wall_ns).sum(),
        }
    }
}

/// An ASCII bar of `width` cells for a 0..=1 fraction — the one bar every
/// human-readable view draws.
pub fn bar(frac: f64, width: usize) -> String {
    let filled = ((frac.clamp(0.0, 1.0) * width as f64).round() as usize).min(width);
    format!("{}{}", "#".repeat(filled), ".".repeat(width - filled))
}
