//! Structured telemetry collection for the tuning pipeline.
//!
//! The low-level switch and primitives live in the workspace-root
//! `telemetry` crate (re-exported here); this module adds the collection
//! layer: a thread-safe [`TelemetrySink`] that keeps one run's record as
//! one log of [`JournalLine`]s (pipeline phases, tuner iterations, model
//! views, finished tuning runs), and a [`RunReport`] that is a fold over
//! journal lines. A [`Journal`](crate::journal::Journal) (`--journal
//! out.jsonl`) writes the sink's lines to disk and closes them with a
//! `stats` line, so the journal is the run's one output file and
//! `autoblox explain` folds it into the same report
//! [`TelemetrySink::report`] takes in process.
//!
//! Everything is gated on the process-wide switch: while telemetry is
//! disabled (the default) a sink records nothing and instrumented call
//! sites pay a single relaxed atomic load, so the hot path is unaffected.
//!
//! # Examples
//!
//! ```
//! use autoblox::telemetry::TelemetrySink;
//!
//! autoblox::telemetry::set_enabled(true);
//! let sink = TelemetrySink::new();
//! let answer = sink.phase("warmup", || 2 + 2);
//! assert_eq!(answer, 4);
//! let report = sink.report(None);
//! autoblox::telemetry::set_enabled(false);
//! assert_eq!(report.phases.len(), 1);
//! assert_eq!(report.validator.simulator_runs, 0);
//! ```

use crate::journal::{JournalLine, MetaLine, StatsLine};
use crate::tuner::IterationRecord;
use crate::validator::{Validator, ValidatorStats};
use mlkit::parallel::PoolStats;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use ssdsim::report::HistogramPercentiles;
use ssdsim::BottleneckReport;
use std::collections::BTreeMap;
use std::sync::OnceLock;

pub use telemetry::{elapsed_ns, enabled, set_enabled, start, Counter};

/// One named pipeline stage and how long it took.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseRecord {
    /// Stage name (e.g. `coarse_prune`, `tune`).
    pub name: String,
    /// Wall-clock duration, ns.
    pub wall_ns: u64,
}

/// Summary of one tuning run, including its per-iteration records.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TunerRunTelemetry {
    /// Target workload name.
    pub workload: String,
    /// Outer iterations executed.
    pub iterations: u64,
    /// Simulator validations the run performed.
    pub validations: u64,
    /// Final best grade.
    pub best_grade: f64,
    /// Per-iteration diagnostics.
    pub records: Vec<IterationRecord>,
}

/// One run's report: the fold of its journal lines ([`RunReport::fold`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// Worker-pool thread limit in effect (from the `meta` line).
    pub threads: u64,
    /// Named pipeline stages in completion order.
    pub phases: Vec<PhaseRecord>,
    /// One entry per recorded tuning run.
    pub tuner: Vec<TunerRunTelemetry>,
    /// Validator cache/simulator statistics (from the `stats` line).
    pub validator: ValidatorStats,
    /// Worker-pool utilization counters (from the `stats` line).
    pub pool: PoolStats,
    /// Tail-latency percentiles estimated from the validator's aggregated
    /// latency histogram (all zeros when telemetry was off or no simulator
    /// ran).
    pub latency_percentiles: HistogramPercentiles,
    /// Bottleneck attribution over every simulator run the validator
    /// performed (all zeros when telemetry was off).
    pub bottleneck: BottleneckReport,
}

impl RunReport {
    /// Folds journal lines into a report, in recording order — the only
    /// way a report is assembled. A `tune` line closes its workload's run:
    /// the `iteration` lines of that workload since its previous `tune`
    /// line become the run's records, each completed by the `model` line
    /// of the same iteration that follows it. The `meta` line gives the
    /// thread limit; the `stats` line gives the validator and pool
    /// counters, and the latency percentiles and bottleneck attribution
    /// derived from the validator's simulator aggregate. Without a `stats`
    /// line (a run cut short) those stay zero. `span` and `summary` lines
    /// fold to nothing.
    pub fn fold<'a>(lines: impl IntoIterator<Item = &'a JournalLine>) -> RunReport {
        let mut report = RunReport::default();
        // Each workload's records not yet closed by a `tune` line.
        let mut open: BTreeMap<&str, Vec<IterationRecord>> = BTreeMap::new();
        for line in lines {
            match line {
                JournalLine::Meta(m) => report.threads = m.threads,
                JournalLine::Phase(p) => report.phases.push(p.clone()),
                JournalLine::Iteration(i) => {
                    open.entry(i.workload.as_str()).or_default().push(i.into())
                }
                JournalLine::Model(m) => {
                    let last = open.get_mut(m.workload.as_str()).and_then(|r| r.last_mut());
                    if let Some(record) = last.filter(|r| r.iteration == m.iteration) {
                        m.fill(record);
                    }
                }
                JournalLine::Tune(t) => report.tuner.push(TunerRunTelemetry {
                    workload: t.workload.clone(),
                    iterations: t.iterations,
                    validations: t.validations,
                    best_grade: t.best_grade,
                    records: open.remove(t.workload.as_str()).unwrap_or_default(),
                }),
                JournalLine::Stats(s) => {
                    report.validator = s.validator.clone();
                    report.pool = s.pool;
                    report.latency_percentiles = s.validator.sim.latency_buckets.percentiles();
                    report.bottleneck = s.validator.sim.bottleneck();
                }
                JournalLine::Span(_) | JournalLine::Summary(_) => {}
            }
        }
        report
    }
}

/// Thread-safe collector for structured telemetry: one log of
/// [`JournalLine`]s in recording order.
///
/// Recording is a no-op while the process-wide switch is off (the line is
/// not even built), so a sink can sit on the hot path unconditionally.
/// Reports are taken with [`TelemetrySink::report`], which folds the log
/// as the run's journal would hold it.
#[derive(Debug, Default)]
pub struct TelemetrySink {
    lines: Mutex<Vec<JournalLine>>,
}

impl TelemetrySink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        TelemetrySink::default()
    }

    /// Appends the line `line` builds when telemetry is enabled; otherwise
    /// `line` is never called.
    pub fn push(&self, line: impl FnOnce() -> JournalLine) {
        if enabled() {
            self.lines.lock().push(line());
        }
    }

    /// Runs `f` as a named pipeline stage, recording a `phase` line with
    /// its wall-clock time when telemetry is enabled and opening a span
    /// around it when tracing is armed. The closure's result passes through.
    pub fn phase<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let _span = telemetry::span::Span::enter_keyed(name, telemetry::span::key_str(name));
        let t = start();
        let out = f();
        self.push(|| {
            JournalLine::Phase(PhaseRecord {
                name: name.to_string(),
                wall_ns: elapsed_ns(t),
            })
        });
        out
    }

    /// The lines recorded after the first `from`, in recording order (none
    /// when `from` is at or past the end).
    pub(crate) fn lines_from(&self, from: usize) -> Vec<JournalLine> {
        self.lines
            .lock()
            .get(from..)
            .map_or_else(Vec::new, <[_]>::to_vec)
    }

    /// Drops everything recorded so far (used at the start of an
    /// instrumented run so the report covers exactly that run).
    pub fn clear(&self) {
        self.lines.lock().clear();
    }

    /// The report of everything recorded: the fold of this run's `meta`
    /// line, the recorded lines and a `stats` line snapshotting the worker
    /// pool and, when given, `validator` — the lines the run's journal
    /// holds once it is finished.
    pub fn report(&self, validator: Option<&Validator>) -> RunReport {
        let meta = JournalLine::Meta(MetaLine::of_this_run());
        let stats = JournalLine::Stats(StatsLine::of(validator));
        let lines = self.lines.lock();
        RunReport::fold(std::iter::once(&meta).chain(lines.iter()).chain([&stats]))
    }
}

/// The process-wide sink the framework facade and the CLI record into.
pub fn global() -> &'static TelemetrySink {
    static GLOBAL: OnceLock<TelemetrySink> = OnceLock::new();
    GLOBAL.get_or_init(TelemetrySink::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The process-wide switch is shared by every test in this binary, so
    // these tests never toggle it; integration tests own the enabled paths.

    #[test]
    fn disabled_sink_records_nothing() {
        let sink = TelemetrySink::new();
        let v = sink.phase("noop", || 7);
        assert_eq!(v, 7);
        sink.push(|| unreachable!("a disabled sink builds no line"));
        let report = sink.report(None);
        assert!(report.phases.is_empty());
        assert!(report.tuner.is_empty());
        assert_eq!(report.validator, ValidatorStats::default());
    }

    #[test]
    fn fold_reads_the_meta_and_stats_lines() {
        let mut validator = ValidatorStats {
            simulator_runs: 3,
            ..Default::default()
        };
        validator.sim.total_latency_ns = 100;
        validator.sim.channel_wait_ns = 40;
        let meta = JournalLine::Meta(MetaLine {
            threads: 4,
            ..Default::default()
        });
        let stats = JournalLine::Stats(StatsLine {
            validator: validator.clone(),
            ..Default::default()
        });
        // A journal cut before its `stats` line has zero counters.
        let cut = RunReport::fold([&meta]);
        assert_eq!(cut.threads, 4);
        assert_eq!(cut.validator, ValidatorStats::default());
        let report = RunReport::fold([&meta, &stats]);
        assert_eq!(report.threads, 4);
        assert_eq!(report.bottleneck, validator.sim.bottleneck());
        assert_eq!(report.bottleneck.channel_wait_ns, 40);
        assert_eq!(
            report.latency_percentiles,
            validator.sim.latency_buckets.percentiles()
        );
        assert_eq!(report.validator, validator);
    }

    #[test]
    fn global_sink_is_a_singleton() {
        let a = global() as *const TelemetrySink;
        let b = global() as *const TelemetrySink;
        assert_eq!(a, b);
    }
}
