//! Cross-run regression diffing of telemetry [`RunReport`]s.
//!
//! [`diff_reports`] summarises a baseline and a candidate report and runs
//! the report core's metric table over the pair ([`crate::report::compare`]):
//! grade, validation count, cache hit rate, simulator time, the
//! histogram-derived tail-latency percentiles, the bottleneck shares and the
//! surrogate's calibration, each judged against the shared [`Thresholds`].
//! The result is a machine-readable [`ReportDiff`] with a single `pass`
//! verdict. This is what `autoblox report diff` prints. The same metric
//! table is what the CLI contract (`crates/autoblox/tests/cli_contract.rs`)
//! holds pinned-seed tunes to against the checked-in golden reports: it
//! catches behavioural drift (more simulator runs, a worse converged grade,
//! a fatter latency tail) that unit tests cannot see.
//!
//! Wall-clock metrics vary by host, so the gate runs with
//! `ignore_time = true`; deterministic metrics (grades, validation counts)
//! use tight-ish relative thresholds and time-based ones stay advisory.

use crate::report::{compare, judge, regressions, Row, Rule, Summary, Thresholds};
use crate::telemetry::RunReport;
use serde::{Deserialize, Serialize};

/// Machine-readable verdict of one report comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReportDiff {
    /// Schema identifier; always [`ReportDiff::SCHEMA`].
    pub schema: String,
    /// The thresholds the diff ran with.
    pub thresholds: Thresholds,
    /// Every compared metric, in a stable order.
    pub metrics: Vec<Row>,
    /// Names of the metrics that regressed (subset of `metrics`).
    pub regressions: Vec<String>,
    /// Metric names excluded from judgement via `--ignore` (they still
    /// appear in `metrics`, unchecked).
    pub ignored: Vec<String>,
    /// What moved between the runs without being a number: the dominant
    /// bottleneck and the most important parameter, one line each when
    /// they changed.
    pub notes: Vec<String>,
    /// `true` when no checked metric regressed.
    pub pass: bool,
}

impl ReportDiff {
    /// The schema identifier written into every diff document.
    pub const SCHEMA: &'static str = "autoblox.diff.v1";
}

/// Maximum absolute divergence of the two grade trajectories over their
/// common prefix (0 when either report has no iteration records).
fn trajectory_divergence(a: &RunReport, b: &RunReport) -> f64 {
    let series = |r: &RunReport| -> Vec<f64> {
        r.tuner
            .iter()
            .flat_map(|t| t.records.iter().map(|i| i.best_grade))
            .collect()
    };
    let (sa, sb) = (series(a), series(b));
    sa.iter()
        .zip(&sb)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Compares `candidate` against `baseline` and judges every row of the
/// metric table against `t`. Metric names in `ignore` (the CLI's repeatable
/// `--ignore <metric>`) are reported but excluded from judgement.
pub fn diff_reports(
    baseline: &RunReport,
    candidate: &RunReport,
    t: &Thresholds,
    ignore: &[String],
) -> ReportDiff {
    let (base, cand) = (Summary::of(baseline), Summary::of(candidate));
    let mut metrics = compare(&base, &cand, t);
    // Trajectory divergence is informational: it localizes where two runs
    // drifted apart, but convergence order may legitimately differ. It is
    // the one row that needs both reports rather than two summaries.
    let divergence = trajectory_divergence(baseline, candidate);
    metrics.insert(
        1,
        judge(
            "grade_trajectory_divergence",
            Some(0.0),
            Some(divergence),
            Rule::Advisory,
            0.0,
        ),
    );

    let mut ignored: Vec<String> = Vec::new();
    for m in &mut metrics {
        if ignore.iter().any(|i| i == &m.metric) {
            m.checked = false;
            m.regressed = false;
            ignored.push(m.metric.clone());
        }
    }

    let mut notes = Vec::new();
    let (from, to) = (base.bottleneck.dominant(), cand.bottleneck.dominant());
    if from != to {
        notes.push(format!("bottleneck moved: {from} -> {to}"));
    }
    if base.importance_lead != cand.importance_lead {
        let name = |s: &Summary| match s.importance_lead.as_str() {
            "" => "none".to_string(),
            lead => lead.to_string(),
        };
        notes.push(format!(
            "importance lead moved: {} -> {}",
            name(&base),
            name(&cand)
        ));
    }

    let regressions = regressions(&metrics);
    ReportDiff {
        schema: ReportDiff::SCHEMA.to_string(),
        thresholds: *t,
        pass: regressions.is_empty(),
        regressions,
        ignored,
        notes,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::TunerRunTelemetry;
    use crate::tuner::IterationRecord;

    fn report_with(grade: f64, runs: u64, hits: u64, misses: u64, p95: u64) -> RunReport {
        let mut r = RunReport {
            schema: RunReport::SCHEMA.to_string(),
            ..Default::default()
        };
        r.tuner.push(TunerRunTelemetry {
            workload: "database".into(),
            best_grade: grade,
            records: vec![IterationRecord {
                iteration: 1,
                best_grade: grade,
                ..Default::default()
            }],
            ..Default::default()
        });
        r.validator.simulator_runs = runs;
        r.validator.cache_hits = hits;
        r.validator.cache_misses = misses;
        r.latency_percentiles.p50_ns = p95 / 2;
        r.latency_percentiles.p95_ns = p95;
        r.latency_percentiles.p99_ns = p95 * 2;
        r
    }

    #[test]
    fn identical_reports_pass() {
        let a = report_with(0.5, 20, 10, 10, 8_000);
        let d = diff_reports(&a, &a.clone(), &Thresholds::default(), &[]);
        assert!(d.pass, "regressions: {:?}", d.regressions);
        assert!(d.regressions.is_empty());
        assert_eq!(d.schema, ReportDiff::SCHEMA);
    }

    #[test]
    fn grade_drop_beyond_threshold_fails() {
        let a = report_with(0.50, 20, 10, 10, 8_000);
        let b = report_with(0.40, 20, 10, 10, 8_000); // -20% > 5%
        let d = diff_reports(&a, &b, &Thresholds::default(), &[]);
        assert!(!d.pass);
        assert!(d.regressions.contains(&"best_grade".to_string()));
    }

    #[test]
    fn small_grade_drop_within_threshold_passes() {
        let a = report_with(0.500, 20, 10, 10, 8_000);
        let b = report_with(0.495, 20, 10, 10, 8_000); // -1% < 5%
        let d = diff_reports(&a, &b, &Thresholds::default(), &[]);
        assert!(d.pass, "regressions: {:?}", d.regressions);
    }

    #[test]
    fn validation_explosion_fails() {
        let a = report_with(0.5, 20, 10, 10, 8_000);
        let b = report_with(0.5, 40, 10, 10, 8_000); // +100% > 25%
        let d = diff_reports(&a, &b, &Thresholds::default(), &[]);
        assert!(!d.pass);
        assert!(d.regressions.contains(&"validations".to_string()));
    }

    #[test]
    fn hit_rate_collapse_fails() {
        let a = report_with(0.5, 20, 30, 10, 8_000); // 75% hit rate
        let b = report_with(0.5, 20, 10, 30, 8_000); // 25% hit rate
        let d = diff_reports(&a, &b, &Thresholds::default(), &[]);
        assert!(!d.pass);
        assert!(d.regressions.contains(&"cache_hit_rate".to_string()));
    }

    #[test]
    fn tail_latency_shift_fails_in_both_directions() {
        let base = report_with(0.5, 20, 10, 10, 8_000);
        for p95 in [16_000u64, 4_000] {
            let b = report_with(0.5, 20, 10, 10, p95);
            let d = diff_reports(&base, &b, &Thresholds::default(), &[]);
            assert!(!d.pass, "p95 {p95} must trip the diff");
            assert!(d.regressions.contains(&"p95_latency_ns".to_string()));
        }
    }

    #[test]
    fn ignore_time_unchecks_simulate_ns() {
        let mut a = report_with(0.5, 20, 10, 10, 8_000);
        let mut b = report_with(0.5, 20, 10, 10, 8_000);
        a.validator.simulate_ns = 1_000_000;
        b.validator.simulate_ns = 100_000_000; // 100x slower
        let strict = diff_reports(&a, &b, &Thresholds::default(), &[]);
        assert!(!strict.pass);
        let lenient = diff_reports(
            &a,
            &b,
            &Thresholds {
                ignore_time: true,
                ..Default::default()
            },
            &[],
        );
        assert!(lenient.pass, "regressions: {:?}", lenient.regressions);
        let sim = lenient
            .metrics
            .iter()
            .find(|m| m.metric == "simulate_ns")
            .expect("metric present");
        assert!(!sim.checked);
    }

    #[test]
    fn empty_reports_pass_with_nothing_checked() {
        let a = RunReport::default();
        let d = diff_reports(&a, &a.clone(), &Thresholds::default(), &[]);
        assert!(d.pass);
        assert!(d.metrics.iter().all(|m| !m.regressed));
    }

    #[test]
    fn bottleneck_shift_beyond_threshold_fails() {
        use ssdsim::BottleneckReport;
        let mut a = report_with(0.5, 20, 10, 10, 8_000);
        let mut b = report_with(0.5, 20, 10, 10, 8_000);
        a.bottleneck = BottleneckReport::from_totals(1_000, 500, 100, 0, 0, 0, 0);
        b.bottleneck = BottleneckReport::from_totals(1_000, 100, 100, 400, 0, 0, 0);
        let d = diff_reports(&a, &b, &Thresholds::default(), &[]);
        assert!(!d.pass);
        assert!(d
            .regressions
            .contains(&"bottleneck_channel_wait_frac".to_string()));
        assert!(d
            .regressions
            .contains(&"bottleneck_gc_stall_frac".to_string()));
        // Same shift with a generous threshold passes.
        let lenient = Thresholds {
            max_bottleneck_shift: 0.5,
            ..Default::default()
        };
        let d = diff_reports(&a, &b, &lenient, &[]);
        assert!(d.pass, "regressions: {:?}", d.regressions);
    }

    #[test]
    fn bottleneck_unchecked_when_nothing_attributed() {
        let a = report_with(0.5, 20, 10, 10, 8_000);
        let d = diff_reports(&a, &a.clone(), &Thresholds::default(), &[]);
        let m = d
            .metrics
            .iter()
            .find(|m| m.metric == "bottleneck_gc_stall_frac")
            .expect("metric present");
        assert!(!m.checked, "all-zero bottlenecks must stay advisory");
    }

    #[test]
    fn ignore_excludes_named_metrics_from_judgement() {
        let a = report_with(0.50, 20, 10, 10, 8_000);
        let b = report_with(0.40, 40, 10, 10, 8_000); // grade + validations fail
        let strict = diff_reports(&a, &b, &Thresholds::default(), &[]);
        assert!(!strict.pass);
        let ignore = vec!["best_grade".to_string(), "validations".to_string()];
        let d = diff_reports(&a, &b, &Thresholds::default(), &ignore);
        assert!(d.pass, "regressions: {:?}", d.regressions);
        assert_eq!(d.ignored, ignore);
        for name in &ignore {
            let m = d.metrics.iter().find(|m| &m.metric == name).unwrap();
            assert!(!m.checked);
            assert!(!m.regressed);
        }
    }

    #[test]
    fn diff_serializes_round_trip() {
        let a = report_with(0.5, 20, 10, 10, 8_000);
        let b = report_with(0.4, 30, 10, 10, 16_000);
        let d = diff_reports(&a, &b, &Thresholds::default(), &[]);
        let json = serde_json::to_string(&d).expect("serializes");
        let back: ReportDiff = serde_json::from_str(&json).expect("parses");
        assert_eq!(d, back);
    }
}
