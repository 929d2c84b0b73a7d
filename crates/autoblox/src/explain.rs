//! `autoblox explain`: the single-report view.
//!
//! Turns a serialized [`RunReport`] (the `--telemetry out.json` document)
//! into one answer to the two questions asked of every learned
//! configuration: where did this run's time go — the pipeline phases and
//! the per-resource latency attribution the device observatory collects —
//! and can the surrogate that picked the configuration be trusted — its
//! calibration and decision timeline ([`crate::model_obs`]). It is the one
//! reader of a run report; the headline numbers come from the report core's
//! [`Summary`].
//!
//! Everything here is a pure function of the input report: no clocks, no
//! environment, so `explain` output is bit-identical whenever its inputs
//! are, which the determinism suite asserts across thread counts.

use crate::model_obs::{self, CalibrationSummary, ModelReport};
use crate::report::{bar, Summary};
use crate::telemetry::{PhaseRecord, RunReport};
use serde::{Deserialize, Serialize};

/// Schema identifier of the `explain --json` document.
pub const EXPLAIN_SCHEMA: &str = "autoblox.explain.v3";

/// One resource's share of the attributed request time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResourceShare {
    /// Resource name (one of `BottleneckReport::fractions`, or `other`).
    pub resource: String,
    /// Fraction of total request time attributed to it.
    pub frac: f64,
}

/// The `explain --json` document of one telemetry report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Explain {
    /// Always [`EXPLAIN_SCHEMA`].
    pub schema: String,
    /// Schema of the report explained.
    pub source_schema: String,
    /// The run's summary.
    pub summary: Summary,
    /// Pipeline stages in completion order, with their wall time.
    pub phases: Vec<PhaseRecord>,
    /// Resource with the largest share, `"none"` when nothing attributed.
    pub dominant: String,
    /// Every share plus `other`, sorted descending by fraction (ties by
    /// name).
    pub shares: Vec<ResourceShare>,
    /// The model observatory's view of the surrogate.
    pub model: ModelReport,
}

/// Explains a parsed telemetry report.
pub fn explain(report: &RunReport) -> Explain {
    let b = &report.bottleneck;
    let mut shares: Vec<ResourceShare> = b
        .fractions()
        .iter()
        .chain(&[("other", b.other_frac)])
        .map(|(name, frac)| ResourceShare {
            resource: name.to_string(),
            frac: *frac,
        })
        .collect();
    shares.sort_by(|a, b| {
        b.frac
            .total_cmp(&a.frac)
            .then_with(|| a.resource.cmp(&b.resource))
    });
    Explain {
        schema: EXPLAIN_SCHEMA.to_string(),
        source_schema: report.schema.clone(),
        summary: Summary::of(report),
        phases: report.phases.clone(),
        dominant: b.dominant().to_string(),
        shares,
        model: model_obs::inspect(report),
    }
}

/// Width of the ASCII bars in [`render`].
const BAR_WIDTH: usize = 40;

fn render_calibration(out: &mut String, c: &CalibrationSummary) {
    if c.points == 0 {
        out.push_str("  calibration: no calibrated iterations\n");
        return;
    }
    out.push_str(&format!(
        "  calibration over {} iterations (ideal Gaussian: 68% / 95%)\n",
        c.points
    ));
    for (label, coverage) in [("within 1σ", c.coverage_1s), ("within 2σ", c.coverage_2s)] {
        out.push_str(&format!(
            "    {label}   {} {:5.1}%\n",
            bar(coverage, BAR_WIDTH),
            coverage * 100.0
        ));
    }
    out.push_str(&format!(
        "    rmse {:.4}   mean nlpd {:.3}   mean |z| {:.3}\n",
        c.rmse, c.mean_nlpd, c.mean_abs_z
    ));
}

/// Renders the whole view for humans: the run's headline numbers, its
/// phases, one bar per resource share, then per tuning run the surrogate's
/// calibration and explore/exploit decision timeline.
pub fn render(doc: &Explain) -> String {
    let s = &doc.summary;
    let mut out = String::new();
    out.push_str(&format!(
        "bottleneck fingerprint ({})\n",
        if s.workloads.is_empty() {
            "no tuning runs recorded".to_string()
        } else {
            s.workloads.join(", ")
        }
    ));
    out.push_str(&format!(
        "  validations: {}   best grade: {:.4}   attributed: {:.3} ms simulated\n",
        s.simulator_runs,
        s.best_grade.unwrap_or(0.0),
        s.bottleneck.total_latency_ns as f64 / 1e6
    ));
    out.push_str(&format!(
        "  latency p50/p95/p99: {}/{}/{} us\n",
        s.latency_percentiles.p50_ns / 1_000,
        s.latency_percentiles.p95_ns / 1_000,
        s.latency_percentiles.p99_ns / 1_000
    ));
    for phase in &doc.phases {
        out.push_str(&format!(
            "  phase {:<20} {:>10.1} ms\n",
            phase.name,
            phase.wall_ns as f64 / 1e6
        ));
    }
    out.push_str(&format!("  dominant: {}\n", doc.dominant));
    for share in &doc.shares {
        out.push_str(&format!(
            "  {:<12} {} {:5.1}%\n",
            share.resource,
            bar(share.frac, BAR_WIDTH),
            share.frac * 100.0
        ));
    }
    if doc.model.runs.is_empty() {
        out.push_str("model observatory: no tuning runs recorded\n");
    }
    for run in &doc.model.runs {
        out.push_str(&format!(
            "model observatory — {} ({} iterations)\n",
            run.workload, run.iterations
        ));
        render_calibration(&mut out, &run.calibration);
        if run.kernel_length_scale > 0.0 {
            out.push_str(&format!(
                "  kernel lengthscale: {:.4}\n",
                run.kernel_length_scale
            ));
        }
        out.push_str(&format!(
            "  decision timeline (mean explore share {:5.1}%)\n",
            run.mean_explore_share * 100.0
        ));
        for d in &run.timeline {
            let z = if d.calibrated {
                format!("{:+6.2}", d.z)
            } else {
                "    --".to_string()
            };
            out.push_str(&format!(
                "    iter {:>3}  explore {:5.1}%  margin {:+.4}  z {}\n",
                d.iteration,
                d.explore_share * 100.0,
                d.decision_margin,
                z
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validator::ValidatorStats;
    use ssdsim::BottleneckReport;

    fn report_with(b: BottleneckReport, grade: f64) -> RunReport {
        RunReport {
            schema: RunReport::SCHEMA.to_string(),
            bottleneck: b,
            tuner: vec![crate::telemetry::TunerRunTelemetry {
                workload: "database".to_string(),
                best_grade: grade,
                ..Default::default()
            }],
            validator: ValidatorStats {
                simulator_runs: 7,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn fingerprint_sorts_shares_descending() {
        let r = report_with(
            BottleneckReport::from_totals(1_000, 50, 300, 100, 20, 30, 0),
            0.5,
        );
        let fp = explain(&r);
        assert_eq!(fp.dominant, "plane-busy");
        assert_eq!(fp.shares.len(), 7);
        // "other" here is 1 - 0.5 = 0.5, the largest share.
        assert_eq!(fp.shares[0].resource, "other");
        assert_eq!(fp.shares[1].resource, "plane-busy");
        for w in fp.shares.windows(2) {
            assert!(w[0].frac >= w[1].frac, "shares must be sorted");
        }
        assert_eq!(fp.summary.simulator_runs, 7);
        assert_eq!(fp.summary.workloads, vec!["database".to_string()]);
    }

    #[test]
    fn dominant_resource_follows_the_largest_share() {
        let a = explain(&report_with(
            BottleneckReport::from_totals(1_000, 600, 100, 0, 0, 0, 0),
            0.4,
        ));
        let b = explain(&report_with(
            BottleneckReport::from_totals(1_000, 100, 0, 700, 0, 0, 0),
            0.6,
        ));
        assert_eq!(a.dominant, "channel-wait");
        assert_eq!(b.dominant, "gc-stall");
        assert_eq!(b.shares[0].resource, "gc-stall");
        assert!((b.shares[0].frac - 0.7).abs() < 1e-12);
        assert_eq!(a.summary.best_grade, Some(0.4));
        assert_eq!(b.summary.best_grade, Some(0.6));
    }

    #[test]
    fn render_is_deterministic_and_mentions_every_resource() {
        let r = report_with(
            BottleneckReport::from_totals(1_000, 200, 100, 50, 25, 100, 25),
            0.4,
        );
        let fp = explain(&r);
        let a = render(&fp);
        let b = render(&fp);
        assert_eq!(a, b);
        for (name, _) in r.bottleneck.fractions().iter().chain(&[("other", 0.0)]) {
            assert!(a.contains(name), "render must mention {name}:\n{a}");
        }
        assert!(a.contains("model observatory"), "{a}");
    }

    #[test]
    fn explain_json_round_trips() {
        let r = report_with(
            BottleneckReport::from_totals(1_000, 200, 100, 50, 25, 100, 25),
            0.4,
        );
        let fp = explain(&r);
        let json = serde_json::to_string(&fp).expect("serializes");
        let back: Explain = serde_json::from_str(&json).expect("parses");
        assert_eq!(fp, back);
    }
}
