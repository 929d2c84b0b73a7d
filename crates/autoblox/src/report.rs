//! The report core: one [`Summary`] of a run and one judged-row engine.
//!
//! Every reader of a finished run goes through the two things here:
//!
//! - [`Summary::of`] condenses a telemetry [`RunReport`] once — headline
//!   numbers, tail latency, bottleneck attribution, the surrogate's
//!   calibration and importance lead. It is what `explain` prints first,
//!   what `report diff` compares.
//! - [`compare`] runs the one metric table over a candidate summary and its
//!   baseline, judging each row with [`judge`]. `report diff` is that
//!   table over two telemetry reports.
//!
//! Everything is a pure function of its inputs, so rows — and the verdicts
//! built from them — are bit-identical whenever the summaries are.

use crate::model_obs::{self, CalibrationSummary};
use crate::telemetry::RunReport;
use serde::{Deserialize, Serialize};
use ssdsim::report::HistogramPercentiles;
use ssdsim::BottleneckReport;

/// Schema identifier carried by every [`Summary`].
pub const RUNS_SCHEMA: &str = "autoblox.runs.v1";

/// The compact record of one run (schema [`RUNS_SCHEMA`]).
///
/// [`Summary::of`] fills every field from the telemetry report alone.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Always [`RUNS_SCHEMA`].
    pub schema: String,
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
    /// Device-observatory samples retained across all simulator runs.
    pub device_samples: u64,
    /// Samples dropped by the bounded per-run buffers.
    pub device_samples_dropped: u64,
    /// Surrogate calibration pooled over every tuning run's iterations.
    pub calibration: CalibrationSummary,
    /// Mean exploration share pooled over every tuning run.
    pub mean_explore_share: f64,
    /// The most important parameter (empty when no sweep was recorded).
    pub importance_lead: String,
    /// Its normalized importance.
    pub importance_lead_share: f64,
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
        let lead = model.importance.first();
        Summary {
            schema: RUNS_SCHEMA.to_string(),
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
            device_samples: v.sim.device_samples,
            device_samples_dropped: v.sim.device_samples_dropped,
            calibration: model.calibration,
            mean_explore_share: model.mean_explore_share,
            importance_lead: lead.map(|p| p.name.clone()).unwrap_or_default(),
            importance_lead_share: lead.map_or(0.0, |p| p.importance),
            threads: report.threads,
            simulate_ns: v.simulate_ns,
            wall_ns: report.phases.iter().map(|p| p.wall_ns).sum(),
        }
    }
}

/// Thresholds of the metric table `report diff` judges. Relative
/// thresholds are fractions (0.05 = 5%); the hit-rate, bottleneck and
/// calibration thresholds are absolute values of a 0..=1 rate or share.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Thresholds {
    /// Maximum tolerated relative drop of the best grade.
    pub max_grade_drop: f64,
    /// Maximum tolerated relative increase in simulator validations.
    pub max_validation_increase: f64,
    /// Maximum tolerated absolute drop of the validator cache hit rate.
    pub max_hit_rate_drop: f64,
    /// Maximum tolerated relative increase in total simulate time.
    pub max_sim_time_increase: f64,
    /// Maximum tolerated relative shift (either direction) of the
    /// histogram-derived p95/p99 latency.
    pub max_tail_latency_shift: f64,
    /// Maximum tolerated absolute shift (either direction) of any
    /// bottleneck-attribution share.
    pub max_bottleneck_shift: f64,
    /// Minimum tolerated ±1σ calibration coverage of the candidate — an
    /// absolute floor, not a relative drift (a well-calibrated Gaussian
    /// surrogate covers ~68%).
    pub min_calibration_coverage: f64,
    /// When `true`, wall-clock-derived metrics (simulate time) are reported
    /// but never judged — the right setting when baseline and candidate ran
    /// on different machines.
    pub ignore_time: bool,
}

impl Default for Thresholds {
    fn default() -> Self {
        Thresholds {
            max_grade_drop: 0.05,
            max_validation_increase: 0.25,
            max_hit_rate_drop: 0.10,
            max_sim_time_increase: 0.50,
            max_tail_latency_shift: 0.25,
            max_bottleneck_shift: 0.15,
            min_calibration_coverage: 0.45,
            ignore_time: false,
        }
    }
}

/// How a row's candidate is judged against its baseline and threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// Fails when the relative change drops below `-threshold`.
    RelDrop,
    /// Fails when the relative change rises above `threshold`.
    RelRise,
    /// Fails when the relative change exceeds `threshold` either way.
    RelShift,
    /// Fails when the value drops by more than `threshold`.
    AbsDrop,
    /// Fails when the value moves by more than `threshold` either way.
    AbsShift,
    /// Fails when the candidate itself is below `threshold`.
    Floor,
    /// Reported, never judged.
    Advisory,
}

/// One judged metric: the row type of `report diff`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// Metric name (e.g. `best_grade`, `validations`, `p95_latency_ns`).
    pub metric: String,
    /// The baseline run's value.
    pub baseline: f64,
    /// The candidate run's value.
    pub candidate: f64,
    /// `candidate - baseline`.
    pub delta: f64,
    /// Delta relative to the baseline magnitude (0 for a ~0 baseline).
    pub relative: f64,
    /// The threshold this metric was judged against (0 = none).
    pub threshold: f64,
    /// Whether this metric can fail the verdict: its rule judges, a
    /// baseline exists and both sides measured it.
    pub checked: bool,
    /// Whether this metric moved past its threshold.
    pub regressed: bool,
}

/// Builds one row: `candidate` against `baseline`, judged by `rule` at
/// `threshold`. A row nobody measured — no baseline value, or no candidate
/// value — reports zeros and is never checked, so a run without tuner
/// records or attribution cannot fail on it.
pub fn judge(
    metric: &str,
    baseline: Option<f64>,
    candidate: Option<f64>,
    rule: Rule,
    threshold: f64,
) -> Row {
    let (baseline, candidate, measured) = match (baseline, candidate) {
        (Some(b), Some(c)) => (b, c, true),
        _ => (0.0, 0.0, false),
    };
    let delta = candidate - baseline;
    let relative = if baseline.abs() < 1e-12 {
        0.0
    } else {
        delta / baseline.abs()
    };
    let checked = measured && rule != Rule::Advisory;
    let regressed = checked
        && match rule {
            Rule::RelDrop => relative < -threshold,
            Rule::RelRise => relative > threshold,
            Rule::RelShift => relative.abs() > threshold,
            Rule::AbsDrop => -delta > threshold,
            Rule::AbsShift => delta.abs() > threshold,
            Rule::Floor => candidate < threshold,
            Rule::Advisory => false,
        };
    Row {
        metric: metric.to_string(),
        baseline,
        candidate,
        delta,
        relative,
        threshold,
        checked,
        regressed,
    }
}

/// A metric's value in one summary; `None` when the run did not measure it.
type Get = Box<dyn Fn(&Summary) -> Option<f64>>;

/// One line of the metric table: name, value, rule, threshold.
type Metric = (String, Get, Rule, f64);

fn metric(
    name: &str,
    get: impl Fn(&Summary) -> Option<f64> + 'static,
    rule: Rule,
    threshold: f64,
) -> Metric {
    (name.to_string(), Box::new(get), rule, threshold)
}

/// The metric table, in report order.
fn metric_table(t: &Thresholds) -> Vec<Metric> {
    let positive = |ns: u64| (ns > 0).then_some(ns as f64);
    // Wall-clock rows are only judged when times are comparable.
    let time_rule = if t.ignore_time {
        Rule::Advisory
    } else {
        Rule::RelRise
    };
    let tail = t.max_tail_latency_shift;
    let mut table = vec![
        // Lower is worse; only a drop beyond the threshold fails.
        metric(
            "best_grade",
            |s| s.best_grade,
            Rule::RelDrop,
            t.max_grade_drop,
        ),
        // More simulator runs for the same problem is a cost regression (a
        // cache or pruning mechanism stopped working).
        metric(
            "validations",
            |s| Some(s.simulator_runs as f64),
            Rule::RelRise,
            t.max_validation_increase,
        ),
        metric(
            "cache_hit_rate",
            |s| Some(s.cache_hit_rate),
            Rule::AbsDrop,
            t.max_hit_rate_drop,
        ),
        metric(
            "simulate_ns",
            move |s| positive(s.simulate_ns),
            time_rule,
            t.max_sim_time_increase,
        ),
        // Simulated time, deterministic, so judged even under
        // `ignore_time`. The median stays advisory (shifts there are
        // usually intentional retuning); the tail is judged.
        metric(
            "p50_latency_ns",
            move |s| positive(s.latency_percentiles.p50_ns),
            Rule::Advisory,
            tail,
        ),
        metric(
            "p95_latency_ns",
            move |s| positive(s.latency_percentiles.p95_ns),
            Rule::RelShift,
            tail,
        ),
        metric(
            "p99_latency_ns",
            move |s| positive(s.latency_percentiles.p99_ns),
            Rule::RelShift,
            tail,
        ),
    ];
    // The attribution is a pure function of (configuration, trace), so a
    // shifted share means the device's behaviour changed, not just its
    // speed. One row per share `BottleneckReport::fractions` names.
    for (i, (share, _)) in BottleneckReport::default().fractions().iter().enumerate() {
        table.push(metric(
            &format!("bottleneck_{}_frac", share.replace('-', "_")),
            move |s| (s.bottleneck.total_latency_ns > 0).then(|| s.bottleneck.fractions()[i].1),
            Rule::AbsShift,
            t.max_bottleneck_shift,
        ));
    }
    let calibrated = |s: &Summary, v: f64| (s.calibration.points > 0).then_some(v);
    table.extend([
        // Convergence speed varies legitimately with iteration caps.
        metric(
            "iterations",
            |s| Some(s.iterations as f64),
            Rule::Advisory,
            0.0,
        ),
        // A drifting surrogate under-covers regardless of history, so the
        // coverage is held to an absolute floor — only when the candidate
        // recorded calibration pairs.
        metric(
            "calibration_coverage_1s",
            move |s| calibrated(s, s.calibration.coverage_1s),
            Rule::Floor,
            t.min_calibration_coverage,
        ),
        metric(
            "calibration_coverage_2s",
            move |s| calibrated(s, s.calibration.coverage_2s),
            Rule::Advisory,
            0.0,
        ),
        metric(
            "calibration_rmse",
            move |s| calibrated(s, s.calibration.rmse),
            Rule::Advisory,
            0.0,
        ),
        metric(
            "calibration_nlpd",
            move |s| calibrated(s, s.calibration.mean_nlpd),
            Rule::Advisory,
            0.0,
        ),
        metric(
            "explore_share",
            |s| Some(s.mean_explore_share),
            Rule::Advisory,
            0.0,
        ),
        metric(
            "importance_lead",
            |s| (!s.importance_lead.is_empty()).then_some(s.importance_lead_share),
            Rule::Advisory,
            0.0,
        ),
    ]);
    table
}

/// Runs the metric table: `candidate` against `baseline`.
pub fn compare(baseline: &Summary, candidate: &Summary, t: &Thresholds) -> Vec<Row> {
    metric_table(t)
        .into_iter()
        .map(|(name, get, rule, threshold)| {
            judge(&name, get(baseline), get(candidate), rule, threshold)
        })
        .collect()
}

/// Names of the rows that regressed, in row order.
pub fn regressions(rows: &[Row]) -> Vec<String> {
    rows.iter()
        .filter(|r| r.regressed)
        .map(|r| r.metric.clone())
        .collect()
}

/// Renders judged rows as an aligned human-readable table (what `report
/// diff` writes to stderr next to the JSON verdict).
pub fn render_rows(rows: &[Row]) -> String {
    let mut out = format!(
        "  {:<30} {:>16} {:>16} {:>8}  verdict\n",
        "metric", "baseline", "candidate", "change"
    );
    for r in rows {
        let verdict = if r.regressed {
            "REGRESSED"
        } else if r.checked {
            "ok"
        } else {
            "advisory"
        };
        out.push_str(&format!(
            "  {:<30} {:>16.6} {:>16.6} {:>+7.1}%  {}\n",
            r.metric,
            r.baseline,
            r.candidate,
            r.relative * 100.0,
            verdict
        ));
    }
    out
}

/// An ASCII bar of `width` cells for a 0..=1 fraction — the one bar every
/// human-readable view draws.
pub fn bar(frac: f64, width: usize) -> String {
    let filled = ((frac.clamp(0.0, 1.0) * width as f64).round() as usize).min(width);
    format!("{}{}", "#".repeat(filled), ".".repeat(width - filled))
}
