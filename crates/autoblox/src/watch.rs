//! Live journal tailing: the state machine behind `autoblox watch`.
//!
//! A [`WatchState`] ingests `autoblox.journal.v1` JSONL lines one at a
//! time — from a finished file (`--replay`) or from a polling tail of a
//! file another process is still writing — and maintains the run's
//! current picture: per-workload phase/iteration/best-grade/ETA (from
//! `progress` and `iteration` lines), aggregated bottleneck shares (from
//! `bottleneck` lines), completed pipeline phases, and per-kind line
//! counts. Lines that yield no [`JournalLine`] — torn, untagged, or a
//! known kind whose members do not decode — are counted and skipped, never
//! fatal: a tail may legitimately observe a half-written line, and a
//! crashed producer leaves one behind.
//!
//! Determinism contract: [`WatchState::snapshot`] with timing excluded is
//! a pure function of the journal's thread-invariant content. The fields
//! that vary by host or thread count — the meta line's `threads` and
//! `argv`, every `wall_ns`, and the `eta_ns` extrapolations — are either
//! never ingested into the snapshot or gated behind `include_timing`, so
//! two journals of the same pinned run taken at different thread counts
//! snapshot byte-identically (the vendored JSON shim sorts object keys).

use crate::journal::{JournalLine, Skipped};
use crate::report::bar;
use serde_json::Value;
use ssdsim::BottleneckReport;
use std::collections::BTreeMap;

/// Schema identifier of the serialized [`WatchState::snapshot`].
pub const WATCH_SCHEMA: &str = "autoblox.watch.v1";

/// Live picture of one workload's tuning run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkloadWatch {
    /// Tuner phase from the newest `progress` line.
    pub phase: String,
    /// Outer iteration counter (newest line wins).
    pub iteration: u64,
    /// Iteration cap from the newest `progress` line.
    pub total: u64,
    /// Percent-complete estimate, 0.0 ..= 1.0.
    pub percent: f64,
    /// ETA extrapolation, ns (wall-clock; excluded from snapshots unless
    /// timing is requested).
    pub eta_ns: u64,
    /// Best grade from the newest `iteration` line.
    pub best_grade: f64,
    /// Maximum best grade over every `iteration` line seen.
    pub best_grade_max: f64,
    /// Convergence delta from the newest `iteration` line.
    pub convergence_delta: f64,
    /// Simulator validations summed over every `iteration` line.
    pub validations: u64,
    /// `iteration` lines seen.
    pub iteration_lines: u64,
    /// `model` lines seen.
    pub model_lines: u64,
    /// `model` lines carrying a realized calibration pair.
    pub calibration_points: u64,
    /// Calibration pairs whose realized grade fell within ±1σ of the
    /// surrogate's prediction.
    pub calibration_covered_1s: u64,
    /// Sum of explore shares over every `model` line (sums, not latest, so
    /// the aggregate is order-insensitive).
    pub explore_share_sum: f64,
}

impl WorkloadWatch {
    /// Fraction of calibration pairs within ±1σ (0.0 with no pairs yet).
    pub fn calibration_coverage_1s(&self) -> f64 {
        if self.calibration_points == 0 {
            0.0
        } else {
            self.calibration_covered_1s as f64 / self.calibration_points as f64
        }
    }

    /// Mean explore share over every `model` line (0.0 with none yet).
    pub fn mean_explore_share(&self) -> f64 {
        if self.model_lines == 0 {
            0.0
        } else {
            self.explore_share_sum / self.model_lines as f64
        }
    }
}

/// Per-kind line counters (every ingested line lands in exactly one).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LineCounts {
    /// `meta` lines.
    pub meta: u64,
    /// `span` lines.
    pub spans: u64,
    /// `iteration` lines.
    pub iterations: u64,
    /// `model` lines.
    pub models: u64,
    /// `progress` lines.
    pub progress: u64,
    /// `phase` lines.
    pub phases: u64,
    /// `series` lines.
    pub series: u64,
    /// `bottleneck` lines.
    pub bottlenecks: u64,
    /// `summary` lines.
    pub summary: u64,
    /// Parsed lines with an unrecognized `"t"` tag (newer producers, or
    /// kinds this build has retired).
    pub unknown: u64,
    /// Lines that yield no kind (torn, untagged, or a known kind whose
    /// members do not decode), skipped with this count as the warning.
    pub skipped: u64,
}

impl LineCounts {
    /// Every line ingested, whatever became of it.
    pub fn total(&self) -> u64 {
        self.meta
            + self.spans
            + self.iterations
            + self.models
            + self.progress
            + self.phases
            + self.series
            + self.bottlenecks
            + self.summary
            + self.unknown
            + self.skipped
    }
}

/// Incremental consumer of journal lines; see the module docs.
#[derive(Debug, Default)]
pub struct WatchState {
    /// Schema string from the `meta` line (empty until seen).
    journal_schema: String,
    workloads: BTreeMap<String, WorkloadWatch>,
    /// Attribution summed over every `bottleneck` line. Raw totals add, so
    /// the aggregate is identical however the concurrent producers
    /// interleaved their lines.
    bottleneck: BottleneckReport,
    /// Completed pipeline phases, in completion order.
    phase_names: Vec<String>,
    counts: LineCounts,
    summary_seen: bool,
    spans_dropped: u64,
    events_dropped: u64,
}

impl WatchState {
    /// An empty state (no lines ingested).
    pub fn new() -> Self {
        WatchState::default()
    }

    /// Ingests one journal line. Returns `true` when the line advanced the
    /// state (parsed as a known kind), `false` when it was counted as
    /// unknown or skipped. Never fails: garbage is the tail's normal diet.
    pub fn ingest(&mut self, line: &str) -> bool {
        let line = match JournalLine::parse(line) {
            Ok(line) => line,
            Err(Skipped::Blank) => return false,
            Err(Skipped::Unknown(_)) => {
                self.counts.unknown += 1;
                return false;
            }
            Err(_) => {
                self.counts.skipped += 1;
                return false;
            }
        };
        match line {
            JournalLine::Meta(m) => {
                self.counts.meta += 1;
                self.journal_schema = m.schema;
            }
            JournalLine::Span(_) => self.counts.spans += 1,
            JournalLine::Iteration(r) => {
                self.counts.iterations += 1;
                let w = self.workloads.entry(r.workload).or_default();
                w.iteration = r.iteration;
                w.best_grade = r.best_grade;
                w.best_grade_max = w.best_grade_max.max(r.best_grade);
                w.convergence_delta = r.convergence_delta;
                w.validations += r.validations;
                w.iteration_lines += 1;
            }
            JournalLine::Model(m) => {
                self.counts.models += 1;
                let w = self.workloads.entry(m.workload).or_default();
                w.model_lines += 1;
                w.explore_share_sum += m.explore_share;
                if m.calibrated {
                    w.calibration_points += 1;
                    let z = crate::model_obs::prediction(m.predicted_mean, m.predicted_std)
                        .z_score(m.realized_grade);
                    if z.abs() <= 1.0 {
                        w.calibration_covered_1s += 1;
                    }
                }
            }
            JournalLine::Progress(p) => {
                self.counts.progress += 1;
                let w = self.workloads.entry(p.workload).or_default();
                w.phase = p.phase;
                w.iteration = p.iteration;
                w.total = p.total;
                w.percent = p.percent;
                w.eta_ns = p.eta_ns;
            }
            JournalLine::Phase(p) => {
                self.counts.phases += 1;
                self.phase_names.push(p.name);
            }
            JournalLine::Series(_) => self.counts.series += 1,
            JournalLine::Bottleneck(b) => {
                self.counts.bottlenecks += 1;
                self.bottleneck = self.bottleneck.plus(&b.report);
            }
            JournalLine::Summary(s) => {
                self.counts.summary += 1;
                self.summary_seen = true;
                self.spans_dropped = s.spans_dropped;
                self.events_dropped = s.events_dropped;
            }
        }
        true
    }

    /// The per-kind line counters.
    pub fn counts(&self) -> LineCounts {
        self.counts
    }

    /// Whether the terminal `summary` line has been seen (the producer
    /// finished the journal).
    pub fn summary_seen(&self) -> bool {
        self.summary_seen
    }

    /// Checks the `meta` line's schema with
    /// [`crate::journal::check_schema`]; a journal whose meta line was not
    /// seen (a tail that attached late) passes.
    ///
    /// # Errors
    ///
    /// Names a foreign schema.
    pub fn check_schema(&self) -> Result<(), String> {
        if self.journal_schema.is_empty() {
            Ok(())
        } else {
            crate::journal::check_schema(&self.journal_schema)
        }
    }

    /// The bottleneck attribution aggregated over every `bottleneck` line.
    pub fn bottleneck(&self) -> BottleneckReport {
        self.bottleneck
    }

    /// The current status as a JSON document (schema [`WATCH_SCHEMA`]).
    ///
    /// With `include_timing` false the snapshot contains only
    /// thread-invariant fields (see the module docs); with it true the
    /// per-workload `eta_ns` wall-clock extrapolations are added (live
    /// ticks want them, determinism fingerprints must not).
    pub fn snapshot(&self, include_timing: bool) -> Value {
        let workloads: Vec<Value> = self
            .workloads
            .iter()
            .map(|(name, w)| {
                let mut obj = serde_json::json!({
                    "workload": name,
                    "phase": w.phase,
                    "iteration": w.iteration,
                    "total": w.total,
                    "percent": w.percent,
                    "best_grade": w.best_grade,
                    "best_grade_max": w.best_grade_max,
                    "convergence_delta": w.convergence_delta,
                    "validations": w.validations,
                    "iteration_lines": w.iteration_lines,
                    "model_lines": w.model_lines,
                    "calibration_points": w.calibration_points,
                    "calibration_coverage_1s": w.calibration_coverage_1s(),
                    "mean_explore_share": w.mean_explore_share(),
                });
                if include_timing {
                    if let Value::Object(map) = &mut obj {
                        map.insert("eta_ns".to_string(), serde_json::json!(w.eta_ns));
                    }
                }
                obj
            })
            .collect();
        let b = self.bottleneck();
        let c = self.counts;
        serde_json::json!({
            "schema": WATCH_SCHEMA,
            "journal_schema": self.journal_schema,
            "workloads": workloads,
            "bottleneck": b,
            "phases": self.phase_names,
            "lines": serde_json::json!({
                "meta": c.meta,
                "spans": c.spans,
                "iterations": c.iterations,
                "models": c.models,
                "progress": c.progress,
                "phases": c.phases,
                "series": c.series,
                "bottlenecks": c.bottlenecks,
                "summary": c.summary,
                "unknown": c.unknown,
                "skipped": c.skipped,
                "total": c.total(),
            }),
            "summary_seen": self.summary_seen,
            "spans_dropped": self.spans_dropped,
            "events_dropped": self.events_dropped,
        })
    }

    /// A compact one-line status for live terminal ticks (carriage-return
    /// friendly: no newline, fixed field order).
    pub fn status_line(&self) -> String {
        let mut out = String::new();
        match self.workloads.iter().next_back() {
            Some((name, w)) => {
                out.push_str(&format!(
                    "{name} {} {}/{} {:5.1}% best {:+.4}",
                    if w.phase.is_empty() { "?" } else { &w.phase },
                    w.iteration,
                    w.total,
                    w.percent * 100.0,
                    w.best_grade,
                ));
                if w.eta_ns > 0 {
                    out.push_str(&format!(" eta {:.0}s", w.eta_ns as f64 / 1e9));
                }
                if w.calibration_points > 0 {
                    out.push_str(&format!(" cal {:.0}%", w.calibration_coverage_1s() * 100.0));
                }
                if w.model_lines > 0 {
                    out.push_str(&format!(" xpl {:.0}%", w.mean_explore_share() * 100.0));
                }
            }
            None => out.push_str("waiting for journal lines"),
        }
        let b = self.bottleneck();
        if b.total_latency_ns > 0 {
            out.push_str(&format!(" | {}", share_marks(&b)));
        }
        out.push_str(&format!(
            " | {} lines ({} skipped)",
            self.counts.total(),
            self.counts.skipped
        ));
        if self.summary_seen {
            out.push_str(" | done");
        }
        out
    }

    /// A multi-line human dashboard (what `watch --replay` prints without
    /// `--json`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, w) in &self.workloads {
            out.push_str(&format!(
                "{name}: {} {}/{} ({:.1}%), best {:+.6} (max {:+.6}), delta {:.6}, \
                 {} validation(s) over {} iteration line(s)\n",
                if w.phase.is_empty() { "?" } else { &w.phase },
                w.iteration,
                w.total,
                w.percent * 100.0,
                w.best_grade,
                w.best_grade_max,
                w.convergence_delta,
                w.validations,
                w.iteration_lines,
            ));
            if w.model_lines > 0 {
                out.push_str(&format!(
                    "  model: coverage(1s) {} {:5.1}% over {} pair(s), \
                     explore share {} {:5.1}%\n",
                    bar(w.calibration_coverage_1s(), BAR_WIDTH),
                    w.calibration_coverage_1s() * 100.0,
                    w.calibration_points,
                    bar(w.mean_explore_share(), BAR_WIDTH),
                    w.mean_explore_share() * 100.0,
                ));
            }
        }
        let b = self.bottleneck();
        if b.total_latency_ns > 0 {
            out.push_str("bottleneck shares:\n");
            for (name, frac) in b.fractions() {
                out.push_str(&format!(
                    "  {name:<12} {} {:5.1}%\n",
                    bar(frac, BAR_WIDTH),
                    frac * 100.0
                ));
            }
            out.push_str(&format!("  dominant: {}\n", b.dominant()));
        }
        if !self.phase_names.is_empty() {
            out.push_str(&format!("phases: {}\n", self.phase_names.join(" -> ")));
        }
        let c = self.counts;
        out.push_str(&format!(
            "lines: {} total ({} spans, {} iterations, {} models, {} progress, {} series, \
             {} bottlenecks, {} unknown, {} skipped)\n",
            c.total(),
            c.spans,
            c.iterations,
            c.models,
            c.progress,
            c.series,
            c.bottlenecks,
            c.unknown,
            c.skipped,
        ));
        if self.summary_seen {
            out.push_str(&format!(
                "journal finished (dropped: {} spans, {} events)\n",
                self.spans_dropped, self.events_dropped
            ));
        } else {
            out.push_str("journal still open (no summary line)\n");
        }
        out
    }
}

/// Width of the dashboard's share and coverage bars.
const BAR_WIDTH: usize = 20;

/// Compact per-share bars for the status line: each share's initials
/// (`cw`, `pb`, `gs`, `cm`, `hq`, `sm`) and 0-4 marks.
fn share_marks(b: &BottleneckReport) -> String {
    b.fractions()
        .iter()
        .map(|(name, frac)| {
            let tag: String = name.split('-').filter_map(|w| w.chars().next()).collect();
            let marks = (frac.clamp(0.0, 1.0) * 4.0).round() as usize;
            format!("{tag}{}", "▮".repeat(marks))
        })
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{
        BottleneckLine, IterationLine, MetaLine, ModelLine, ProgressLine, SeriesLine, SpanLine,
        SummaryLine, JOURNAL_SCHEMA,
    };
    use crate::telemetry::PhaseRecord;

    fn meta() -> String {
        JournalLine::Meta(MetaLine {
            schema: JOURNAL_SCHEMA.to_string(),
            threads: 4,
            argv: vec!["x".to_string()],
        })
        .to_line()
    }

    fn iteration(
        iteration: u64,
        best_grade: f64,
        convergence_delta: f64,
        validations: u64,
    ) -> String {
        JournalLine::Iteration(IterationLine {
            workload: "Database".to_string(),
            iteration,
            best_grade,
            convergence_delta,
            validations,
            ..Default::default()
        })
        .to_line()
    }

    fn progress(phase: &str, iteration: u64, total: u64, percent: f64, eta_ns: u64) -> String {
        JournalLine::Progress(ProgressLine {
            workload: "Database".to_string(),
            phase: phase.to_string(),
            iteration,
            total,
            percent,
            eta_ns,
        })
        .to_line()
    }

    /// A `model` line predicting 0.5 ± 0.1.
    fn model(iteration: u64, calibrated: bool, realized_grade: f64, explore_share: f64) -> String {
        JournalLine::Model(ModelLine {
            workload: "Database".to_string(),
            iteration,
            predicted_mean: 0.5,
            predicted_std: 0.1,
            calibrated,
            realized_grade,
            explore_share,
            exploit_share: 1.0 - explore_share,
            decision_margin: 0.01,
            kernel_length_scale: 1.0,
        })
        .to_line()
    }

    /// A `bottleneck` line of `[total, channel, plane, gc, cache_miss,
    /// queue]` nanoseconds.
    fn bottleneck_line(replay: &str, ns: [u64; 6]) -> String {
        JournalLine::Bottleneck(BottleneckLine {
            trace: "Database".to_string(),
            replay: replay.to_string(),
            report: BottleneckReport::from_totals(ns[0], ns[1], ns[2], ns[3], ns[4], ns[5], 0),
        })
        .to_line()
    }

    #[test]
    fn ingest_builds_the_picture_and_skips_garbage() {
        let mut w = WatchState::new();
        assert!(w.ingest(&meta()));
        assert!(w.ingest(&iteration(1, 0.4, 0.4, 7)));
        assert!(w.ingest(&iteration(2, 0.3, 0.1, 5)));
        assert!(w.ingest(&progress("iterating", 2, 8, 0.325, 5000)));
        assert!(w.ingest(&bottleneck_line("timed", [1000, 400, 200, 100, 100, 100])));
        assert!(!w.ingest("this is not json"));
        assert!(!w.ingest(r#"{"t":"span","id":"trunca"#)); // torn tail write
        assert!(!w.ingest(r#"{"t":"hologram","x":1}"#)); // newer producer
        assert!(!w.ingest(r#"{"no_tag":true}"#));
        // A known kind with a mistyped member is damage, not zeros.
        let mistyped = iteration(3, 0.9, 0.0, 1).replace(r#""iteration":3"#, r#""iteration":"3""#);
        assert!(!w.ingest(&mistyped));
        let summary = JournalLine::Summary(SummaryLine {
            spans_written: 1,
            events_written: 4,
            spans_dropped: 0,
            events_dropped: 2,
        });
        assert!(w.ingest(&summary.to_line()));

        let ww = &w.workloads["Database"];
        assert_eq!(ww.iteration, 2);
        assert_eq!(ww.best_grade, 0.3);
        assert_eq!(ww.best_grade_max, 0.4, "max survives a later dip");
        assert_eq!(ww.validations, 12, "validations sum across lines");
        assert_eq!(ww.phase, "iterating");
        assert_eq!(ww.total, 8);
        let c = w.counts();
        assert_eq!((c.skipped, c.unknown), (4, 1));
        assert_eq!(c.total(), 11);
        assert!(w.summary_seen());
        assert_eq!(w.events_dropped, 2);
        assert_eq!(w.check_schema(), Ok(()));
        let b = w.bottleneck();
        assert_eq!(b.total_latency_ns, 1000);
        assert!((b.channel_wait_frac - 0.4).abs() < 1e-12);
    }

    #[test]
    fn model_lines_feed_coverage_and_explore_share() {
        let mut w = WatchState::new();
        w.ingest(&meta());
        // Covered pair: realized within 1σ of the prediction.
        assert!(w.ingest(&model(1, true, 0.55, 0.4)));
        // Missed pair: realized 3σ away.
        assert!(w.ingest(&model(2, true, 0.8, 0.2)));
        // Uncalibrated line (validation rejected): counts toward explore
        // share only.
        assert!(w.ingest(&model(3, false, 0.0, 0.6)));
        let ww = &w.workloads["Database"];
        assert_eq!(ww.model_lines, 3);
        assert_eq!(ww.calibration_points, 2);
        assert_eq!(ww.calibration_covered_1s, 1);
        assert!((ww.calibration_coverage_1s() - 0.5).abs() < 1e-12);
        assert!((ww.mean_explore_share() - 0.4).abs() < 1e-12);
        assert_eq!(w.counts().models, 3);
        let line = w.status_line();
        assert!(line.contains("cal 50%"), "{line}");
        assert!(line.contains("xpl 40%"), "{line}");
        let dash = w.render();
        assert!(dash.contains("coverage(1s)"), "{dash}");
        let snap = serde_json::to_string(&w.snapshot(false)).unwrap();
        assert!(snap.contains("\"calibration_coverage_1s\":0.5"), "{snap}");
    }

    #[test]
    fn snapshot_excludes_timing_unless_asked() {
        let mut w = WatchState::new();
        w.ingest(&meta());
        w.ingest(&progress("iterating", 1, 4, 0.325, 123456));
        let bare = serde_json::to_string(&w.snapshot(false)).unwrap();
        assert!(!bare.contains("eta_ns"), "{bare}");
        assert!(!bare.contains("123456"), "{bare}");
        assert!(
            !bare.contains("\"threads\""),
            "meta threads must not leak: {bare}"
        );
        let timed = serde_json::to_string(&w.snapshot(true)).unwrap();
        assert!(timed.contains("\"eta_ns\":123456"), "{timed}");
    }

    #[test]
    fn snapshot_is_identical_however_concurrent_lines_interleave() {
        let span = JournalLine::Span(SpanLine {
            id: "aa".to_string(),
            parent: "00".to_string(),
            name: "sim.run".to_string(),
            disc: "00".to_string(),
            start_ns: 5,
            dur_ns: 9,
            thread: 2,
        });
        let series = JournalLine::Series(SeriesLine {
            trace: "Database".to_string(),
            replay: "timed".to_string(),
            interval_ns: 100,
            ..Default::default()
        });
        let lines = [
            meta(),
            span.to_line(),
            bottleneck_line("timed", [600, 100, 50, 25, 25, 0]),
            bottleneck_line("saturated", [400, 300, 50, 25, 25, 0]),
            series.to_line(),
        ];
        // The concurrent producers (spans, series, bottlenecks) may land in
        // any order; the driver lines (meta first) are fixed. Compare the
        // original order against a reversed concurrent suffix.
        let mut a = WatchState::new();
        for l in &lines {
            a.ingest(l);
        }
        let mut b = WatchState::new();
        b.ingest(&lines[0]);
        for l in lines[1..].iter().rev() {
            b.ingest(l);
        }
        assert_eq!(
            serde_json::to_string(&a.snapshot(false)).unwrap(),
            serde_json::to_string(&b.snapshot(false)).unwrap()
        );
    }

    #[test]
    fn renderers_cover_the_populated_state() {
        let mut w = WatchState::new();
        w.ingest(&meta());
        let phase = PhaseRecord {
            name: "tune".to_string(),
            wall_ns: 500,
        };
        w.ingest(&JournalLine::Phase(phase).to_line());
        w.ingest(&progress("done", 4, 4, 1.0, 0));
        w.ingest(&bottleneck_line("timed", [100, 80, 0, 0, 0, 0]));
        let line = w.status_line();
        assert!(line.contains("Database done 4/4"), "{line}");
        let dash = w.render();
        assert!(dash.contains("channel-wait"), "{dash}");
        assert!(dash.contains("phases: tune"), "{dash}");
        assert!(dash.contains("journal still open"), "{dash}");
        let empty = WatchState::new().status_line();
        assert!(empty.contains("waiting"), "{empty}");
    }

    #[test]
    fn unknown_schema_is_reported_not_fatal() {
        let mut w = WatchState::new();
        assert_eq!(w.check_schema(), Ok(()), "a tail that attached late");
        let foreign = JournalLine::Meta(MetaLine {
            schema: "somethingelse.v9".to_string(),
            ..Default::default()
        });
        assert!(w.ingest(&foreign.to_line()));
        let err = w.check_schema().unwrap_err();
        assert!(err.contains("somethingelse.v9"), "{err}");
    }
}
