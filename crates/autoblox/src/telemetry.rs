//! Structured telemetry collection for the tuning pipeline.
//!
//! The low-level switch and primitives live in the workspace-root
//! `telemetry` crate (re-exported here); this module adds the collection
//! layer: a thread-safe [`TelemetrySink`] that phases, tuning outcomes, and
//! pruning reports are recorded into, and a [`RunReport`] that serializes
//! the whole picture — per-iteration tuner records, validator cache
//! statistics, simulator activity, and worker-pool utilization — to JSON
//! (the `--telemetry out.json` CLI flag).
//!
//! Everything is gated on the process-wide switch: while telemetry is
//! disabled (the default) a sink records nothing and instrumented call
//! sites pay a single relaxed atomic load, so the hot path is unaffected.
//!
//! # Examples
//!
//! ```
//! use autoblox::telemetry::{RunReport, TelemetrySink};
//!
//! autoblox::telemetry::set_enabled(true);
//! let sink = TelemetrySink::new();
//! let answer = sink.phase("warmup", || 2 + 2);
//! assert_eq!(answer, 4);
//! let report = sink.report(None);
//! autoblox::telemetry::set_enabled(false);
//! assert_eq!(report.phases.len(), 1);
//! assert_eq!(report.schema, RunReport::SCHEMA);
//! ```

use crate::journal::{JournalHandle, JournalLine};
use crate::pruning::{CoarseReport, FineReport};
use crate::tuner::{IterationRecord, TuningOutcome};
use crate::validator::{Validator, ValidatorStats};
use mlkit::parallel::PoolStats;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use ssdsim::report::HistogramPercentiles;
use ssdsim::BottleneckReport;
use std::sync::{Arc, OnceLock};

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
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
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

/// Summary of one coarse-pruning stage.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CoarsePruneTelemetry {
    /// Workload the sweep ran against.
    pub workload: String,
    /// Deduplicated simulator probes fanned out.
    pub probe_count: u64,
    /// Stage wall-clock, ns.
    pub wall_ns: u64,
    /// Parameters classified insensitive.
    pub insensitive: u64,
    /// Parameters that survived.
    pub sensitive: u64,
}

/// Summary of one fine-pruning stage.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FinePruneTelemetry {
    /// Workload the regression was fitted for.
    pub workload: String,
    /// Valid samples the regression used.
    pub samples_used: u64,
    /// Sampling attempts including rejected draws.
    pub attempts: u64,
    /// Ridge fit time, ns.
    pub fit_ns: u64,
    /// Stage wall-clock, ns.
    pub wall_ns: u64,
    /// Parameters pruned by the coefficient threshold.
    pub pruned: u64,
    /// Parameters surviving into the tuning order.
    pub survivors: u64,
    /// R² of the fitted regression.
    pub r_squared: f64,
}

/// Both pruning stages' summaries, in recording order.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PruningTelemetry {
    /// Coarse sweeps recorded.
    pub coarse: Vec<CoarsePruneTelemetry>,
    /// Fine regressions recorded.
    pub fine: Vec<FinePruneTelemetry>,
}

/// The full structured telemetry report for one run.
///
/// This is what `--telemetry out.json` writes: a versioned, self-describing
/// JSON document that round-trips through serde.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Schema identifier; always [`RunReport::SCHEMA`].
    pub schema: String,
    /// Whether telemetry was enabled when the report was taken.
    pub enabled: bool,
    /// Worker-pool thread limit in effect.
    pub threads: u64,
    /// Named pipeline stages in completion order.
    pub phases: Vec<PhaseRecord>,
    /// One entry per recorded tuning run.
    pub tuner: Vec<TunerRunTelemetry>,
    /// Pruning-stage summaries.
    pub pruning: PruningTelemetry,
    /// Validator cache/simulator statistics.
    pub validator: ValidatorStats,
    /// Worker-pool utilization counters.
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
    /// The schema identifier written into every report.
    pub const SCHEMA: &'static str = "autoblox.telemetry.v3";

    /// Top-level keys every serialized report must carry.
    pub const REQUIRED_KEYS: [&'static str; 8] = [
        "schema",
        "enabled",
        "threads",
        "phases",
        "tuner",
        "pruning",
        "validator",
        "pool",
    ];

    /// Parses and validates a serialized report: the JSON must parse, carry
    /// every required top-level key, match the schema identifier, and
    /// deserialize back into a [`RunReport`].
    ///
    /// Only the current schema (`autoblox.telemetry.v3`) parses silently.
    /// Older minor versions (`.v1`, `.v2`) lack fields every reader now
    /// relies on and are rejected with a "re-record" message — no
    /// checked-in report uses them. Newer minor versions (`.v4` and up)
    /// parse with a warning (see [`RunReport::parse_checked_verbose`] to
    /// observe it) rather than failing, so a new producer and an old
    /// checker can coexist.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first problem found; for
    /// field-level mismatches the message names the exact field path (e.g.
    /// `validator.simulate_ns`).
    pub fn parse_checked(json: &str) -> Result<RunReport, String> {
        Self::parse_checked_verbose(json).map(|c| c.report)
    }

    /// Like [`RunReport::parse_checked`], also returning any non-fatal
    /// warnings (currently: a newer minor schema version was accepted).
    ///
    /// # Errors
    ///
    /// Same as [`RunReport::parse_checked`].
    pub fn parse_checked_verbose(json: &str) -> Result<CheckedReport, String> {
        let value: serde_json::Value =
            serde_json::from_str(json).map_err(|e| format!("invalid JSON: {e}"))?;
        let obj = match &value {
            serde_json::Value::Object(map) => map,
            _ => return Err("telemetry report must be a JSON object".to_string()),
        };
        for key in Self::REQUIRED_KEYS {
            if !obj.contains_key(key) {
                return Err(format!("missing required key `{key}`"));
            }
        }
        let schema = value["schema"].as_str().unwrap_or("").to_string();
        let mut warnings = Vec::new();
        match schema_minor_version(&schema) {
            Some(3) => {}
            Some(1 | 2) => {
                return Err(format!(
                    "schema `{schema}` is no longer read (expected `{}`); re-record the \
                     report with this build",
                    Self::SCHEMA
                ))
            }
            Some(v) if v > 3 => warnings.push(format!(
                "report uses newer schema `{schema}`; parsing best-effort as `{}` \
                 (unknown fields ignored)",
                Self::SCHEMA
            )),
            _ => {
                return Err(format!(
                    "unknown schema `{schema}` (expected `{}`)",
                    Self::SCHEMA
                ))
            }
        }
        let report: RunReport = serde_json::from_str(json).map_err(|e| {
            let e = e.to_string();
            let missing = e
                .strip_prefix("missing field `")
                .and_then(|r| r.split('`').next());
            match locate_schema_mismatch(&value, missing) {
                Some(path) => format!("schema mismatch at `{path}`: {e}"),
                None => format!("schema mismatch: {e}"),
            }
        })?;
        Ok(CheckedReport { report, warnings })
    }
}

/// A successfully validated report plus any non-fatal warnings.
#[derive(Debug, Clone)]
pub struct CheckedReport {
    /// The parsed report.
    pub report: RunReport,
    /// Non-fatal validation warnings (e.g. a newer minor schema version).
    pub warnings: Vec<String>,
}

/// Extracts `N` from `autoblox.telemetry.vN`; `None` for anything else.
fn schema_minor_version(schema: &str) -> Option<u64> {
    let rest = schema.strip_prefix("autoblox.telemetry.v")?;
    let n: u64 = rest.parse().ok()?;
    (n >= 1).then_some(n)
}

/// A fully-populated report (one element in every list) used as the
/// structural template for field-level mismatch reporting.
fn schema_template() -> serde_json::Value {
    let report = RunReport {
        schema: RunReport::SCHEMA.to_string(),
        phases: vec![PhaseRecord::default()],
        tuner: vec![TunerRunTelemetry {
            records: vec![IterationRecord::default()],
            ..Default::default()
        }],
        pruning: PruningTelemetry {
            coarse: vec![CoarsePruneTelemetry::default()],
            fine: vec![FinePruneTelemetry::default()],
        },
        ..Default::default()
    };
    serde_json::to_value(&report).expect("template serializes")
}

/// Walks `candidate` against the template and names the first field that
/// does not fit the schema: a wrong type, or an absent member named
/// `missing` (the field serde reported missing, without its path). `None`
/// when the document is structurally conformant — then the deserializer's
/// own error message is the best description available.
fn locate_schema_mismatch(candidate: &serde_json::Value, missing: Option<&str>) -> Option<String> {
    fn kind(v: &serde_json::Value) -> &'static str {
        use serde_json::Value::*;
        match v {
            Null => "null",
            Bool(_) => "boolean",
            Int(_) => "integer",
            Float(_) => "number",
            Str(_) => "string",
            Array(_) => "array",
            Object(_) => "object",
        }
    }
    fn walk(
        tpl: &serde_json::Value,
        got: &serde_json::Value,
        path: &str,
        missing: Option<&str>,
    ) -> Option<String> {
        use serde_json::Value::*;
        match (tpl, got) {
            (Object(t), Object(g)) => {
                for (k, tv) in t {
                    let sub = if path.is_empty() {
                        k.clone()
                    } else {
                        format!("{path}.{k}")
                    };
                    // Serde reports a missing field by name only and a type
                    // mismatch without either; `default`ed members may be
                    // absent, so only the member serde named is blamed.
                    match g.get(k) {
                        Some(gv) => {
                            if let Some(hit) = walk(tv, gv, &sub, missing) {
                                return Some(hit);
                            }
                        }
                        None if missing == Some(k.as_str()) => {
                            return Some(format!("{sub} (missing)"))
                        }
                        None => {}
                    }
                }
                None
            }
            (Array(t), Array(g)) => {
                let elem_tpl = t.first()?;
                for (i, gv) in g.iter().enumerate() {
                    if let Some(hit) = walk(elem_tpl, gv, &format!("{path}[{i}]"), missing) {
                        return Some(hit);
                    }
                }
                None
            }
            // Numbers are interchangeable where integral; everything else
            // must match the template's kind exactly.
            (Int(_), Int(_)) | (Float(_), Float(_)) | (Float(_), Int(_)) => None,
            (Int(_), Float(f)) if f.fract() == 0.0 => None,
            (Bool(_), Bool(_)) | (Str(_), Str(_)) | (Null, _) => None,
            _ => Some(format!(
                "{path} (expected {}, got {})",
                kind(tpl),
                kind(got)
            )),
        }
    }
    walk(&schema_template(), candidate, "", missing)
}

#[derive(Debug, Default)]
struct SinkInner {
    phases: Vec<PhaseRecord>,
    tuner: Vec<TunerRunTelemetry>,
    coarse: Vec<CoarsePruneTelemetry>,
    fine: Vec<FinePruneTelemetry>,
    journal: Option<Arc<JournalHandle>>,
}

/// Thread-safe collector for structured telemetry.
///
/// All recording methods are no-ops while the process-wide switch is off,
/// so a sink can sit on the hot path unconditionally. Reports are taken
/// with [`TelemetrySink::report`], which also snapshots the worker pool
/// and (optionally) a validator.
#[derive(Debug, Default)]
pub struct TelemetrySink {
    inner: Mutex<SinkInner>,
}

impl TelemetrySink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        TelemetrySink::default()
    }

    /// Runs `f` as a named pipeline stage, recording its wall-clock time
    /// when telemetry is enabled and opening a span around it when tracing
    /// is armed. The closure's result passes through.
    pub fn phase<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let _span = telemetry::span::Span::enter_keyed(name, telemetry::span::key_str(name));
        let t = start();
        let out = f();
        if enabled() {
            self.record_phase_ns(name, elapsed_ns(t));
        }
        out
    }

    /// Records an already-measured stage duration, streaming it to an
    /// attached journal.
    pub fn record_phase_ns(&self, name: &str, wall_ns: u64) {
        if enabled() {
            let record = PhaseRecord {
                name: name.to_string(),
                wall_ns,
            };
            let mut inner = self.inner.lock();
            if let Some(j) = &inner.journal {
                j.push(JournalLine::Phase(record.clone()));
            }
            inner.phases.push(record);
        }
    }

    /// Attaches a run journal: subsequent phase completions and tuner
    /// iteration records stream into it as they happen.
    pub fn attach_journal(&self, handle: Arc<JournalHandle>) {
        self.inner.lock().journal = Some(handle);
    }

    /// Detaches the journal, if any (the handle's writer keeps draining
    /// whatever was already queued).
    pub fn detach_journal(&self) {
        self.inner.lock().journal = None;
    }

    /// Streams the line `line` builds to the attached journal. Without a
    /// journal this is a no-op and `line` is never called, so nothing is
    /// built. Unlike the other recorders this is not gated on the telemetry
    /// switch — a journal is an explicit opt-in of its own.
    pub fn journal(&self, line: impl FnOnce() -> JournalLine) {
        if let Some(j) = &self.inner.lock().journal {
            j.push(line());
        }
    }

    /// Records one tuning run's outcome (including its iteration records).
    pub fn record_outcome(&self, outcome: &TuningOutcome) {
        if enabled() {
            self.inner.lock().tuner.push(TunerRunTelemetry {
                workload: outcome.workload.clone(),
                iterations: outcome.iterations as u64,
                validations: outcome.validations,
                best_grade: outcome.best.grade,
                records: outcome.iteration_records.clone(),
            });
        }
    }

    /// Records a coarse-pruning stage.
    pub fn record_coarse(&self, report: &CoarseReport) {
        if enabled() {
            self.inner.lock().coarse.push(CoarsePruneTelemetry {
                workload: report.workload.clone(),
                probe_count: report.probe_count,
                wall_ns: report.wall_ns,
                insensitive: report.insensitive().len() as u64,
                sensitive: report.sensitive().len() as u64,
            });
        }
    }

    /// Records a fine-pruning stage.
    pub fn record_fine(&self, report: &FineReport) {
        if enabled() {
            let pruned = report.coefficients.iter().filter(|c| c.pruned).count() as u64;
            self.inner.lock().fine.push(FinePruneTelemetry {
                workload: report.workload.clone(),
                samples_used: report.samples_used,
                attempts: report.attempts,
                fit_ns: report.fit_ns,
                wall_ns: report.wall_ns,
                pruned,
                survivors: report.coefficients.len() as u64 - pruned,
                r_squared: report.r_squared,
            });
        }
    }

    /// Drops everything recorded so far (used at the start of an
    /// instrumented run so the report covers exactly that run).
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        let journal = inner.journal.take();
        *inner = SinkInner::default();
        inner.journal = journal;
    }

    /// Snapshots everything recorded into a serializable [`RunReport`],
    /// folding in the worker pool's counters and, when given, the
    /// validator's cache statistics.
    pub fn report(&self, validator: Option<&Validator>) -> RunReport {
        let inner = self.inner.lock();
        let validator = validator.map(Validator::stats).unwrap_or_default();
        RunReport {
            schema: RunReport::SCHEMA.to_string(),
            enabled: enabled(),
            threads: mlkit::parallel::max_threads() as u64,
            phases: inner.phases.clone(),
            tuner: inner.tuner.clone(),
            pruning: PruningTelemetry {
                coarse: inner.coarse.clone(),
                fine: inner.fine.clone(),
            },
            latency_percentiles: validator.sim.latency_buckets.percentiles(),
            bottleneck: validator.sim.bottleneck(),
            validator,
            pool: mlkit::parallel::pool_stats(),
        }
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
        sink.record_phase_ns("direct", 123);
        let report = sink.report(None);
        assert!(report.phases.is_empty());
        assert!(report.tuner.is_empty());
        assert_eq!(report.validator, ValidatorStats::default());
    }

    #[test]
    fn parse_checked_rejects_bad_documents() {
        assert!(RunReport::parse_checked("not json").is_err());
        assert!(RunReport::parse_checked("[1,2,3]").is_err());
        let missing = r#"{"schema":"autoblox.telemetry.v3"}"#;
        let err = RunReport::parse_checked(missing).unwrap_err();
        assert!(err.contains("missing required key"), "{err}");
        // Reports recorded before the hybrid family lack the fold time;
        // they are refused, not read as zero.
        let mut value = serde_json::to_value(RunReport {
            schema: RunReport::SCHEMA.to_string(),
            ..Default::default()
        })
        .expect("to value");
        if let serde_json::Value::Object(root) = &mut value {
            if let Some(serde_json::Value::Object(validator)) = root.get_mut("validator") {
                if let Some(serde_json::Value::Object(sim)) = validator.get_mut("sim") {
                    sim.remove("slc_migration_ns").expect("member exists");
                }
            }
        }
        let err = RunReport::parse_checked(&serde_json::to_string(&value).unwrap()).unwrap_err();
        assert!(err.contains("validator.sim.slc_migration_ns"), "{err}");
        assert!(!err.contains('\n'), "one line: {err}");
    }

    #[test]
    fn default_report_round_trips() {
        let report = RunReport {
            schema: RunReport::SCHEMA.to_string(),
            ..Default::default()
        };
        let json = serde_json::to_string(&report).expect("serializes");
        let back = RunReport::parse_checked(&json).expect("parses back");
        assert_eq!(report, back);
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let report = RunReport {
            schema: "autoblox.telemetry.v0".to_string(),
            ..Default::default()
        };
        let json = serde_json::to_string(&report).expect("serializes");
        let err = RunReport::parse_checked(&json).unwrap_err();
        assert!(err.contains("unknown schema"), "{err}");
    }

    #[test]
    fn newer_minor_schema_parses_with_warning() {
        let report = RunReport {
            schema: "autoblox.telemetry.v4".to_string(),
            ..Default::default()
        };
        let json = serde_json::to_string(&report).expect("serializes");
        let checked = RunReport::parse_checked_verbose(&json)
            .expect("a newer minor version must still parse");
        assert_eq!(checked.report.schema, "autoblox.telemetry.v4");
        assert_eq!(checked.warnings.len(), 1, "exactly one version warning");
        assert!(
            checked.warnings[0].contains("newer schema"),
            "{}",
            checked.warnings[0]
        );
        // The strict entry point stays warning-free on the current version.
        let current = serde_json::to_string(&RunReport {
            schema: RunReport::SCHEMA.to_string(),
            ..Default::default()
        })
        .expect("serializes");
        let checked = RunReport::parse_checked_verbose(&current).expect("parses");
        assert!(checked.warnings.is_empty());
    }

    #[test]
    fn v1_reports_are_rejected() {
        // A v1 producer wrote no bottleneck attribution or latency
        // percentiles; no checked-in report is that old, so the reader is
        // gone and the error says what to do instead.
        let report = RunReport {
            schema: "autoblox.telemetry.v1".to_string(),
            ..Default::default()
        };
        let mut value = serde_json::to_value(&report).expect("to value");
        if let serde_json::Value::Object(map) = &mut value {
            map.remove("bottleneck");
            map.remove("latency_percentiles");
        }
        let json = serde_json::to_string(&value).expect("serializes");
        let err = RunReport::parse_checked(&json).unwrap_err();
        assert!(err.contains("re-record"), "{err}");
        assert!(!err.contains('\n'), "one line: {err}");
    }

    #[test]
    fn v2_reports_are_rejected() {
        // A v2 report is structurally complete apart from the model
        // observatory's per-iteration fields; it is still refused rather
        // than read with silently defaulted calibration.
        let report = RunReport {
            schema: "autoblox.telemetry.v2".to_string(),
            ..Default::default()
        };
        let json = serde_json::to_string(&report).expect("serializes");
        let err = RunReport::parse_checked(&json).unwrap_err();
        assert!(err.contains("re-record"), "{err}");
        assert!(err.contains("autoblox.telemetry.v2"), "{err}");
    }

    #[test]
    fn type_mismatch_names_the_exact_field() {
        let report = RunReport {
            schema: RunReport::SCHEMA.to_string(),
            ..Default::default()
        };
        let mut value = serde_json::to_value(&report).expect("to value");
        // Corrupt one deeply nested field: validator.cache_hits: u64 -> str.
        if let serde_json::Value::Object(map) = &mut value {
            if let Some(serde_json::Value::Object(v)) = map.get_mut("validator") {
                v.insert(
                    "cache_hits".to_string(),
                    serde_json::Value::Str("lots".to_string()),
                );
            }
        }
        let err = RunReport::parse_checked(&serde_json::to_string(&value).unwrap())
            .expect_err("a corrupted field must not parse");
        assert!(
            err.contains("validator.cache_hits"),
            "error must name the exact field path: {err}"
        );
    }

    #[test]
    fn missing_member_names_the_exact_field() {
        let report = RunReport {
            schema: RunReport::SCHEMA.to_string(),
            tuner: vec![TunerRunTelemetry {
                records: vec![IterationRecord::default()],
                ..Default::default()
            }],
            ..Default::default()
        };
        for path in [
            &["tuner", "0", "records", "0", "predicted_mean"][..],
            &["validator", "simulator_runs"],
            &["validator", "sim", "channel_wait_ns"],
        ] {
            let mut value = serde_json::to_value(&report).expect("to value");
            let (last, parents) = path.split_last().expect("a path");
            let mut at = &mut value;
            for seg in parents {
                at = match at {
                    serde_json::Value::Object(map) => map.get_mut(*seg).expect("member"),
                    serde_json::Value::Array(items) => &mut items[seg.parse::<usize>().unwrap()],
                    _ => panic!("no member {seg}"),
                };
            }
            let serde_json::Value::Object(map) = at else {
                panic!("object expected")
            };
            map.remove(*last).expect("member exists");
            let err = RunReport::parse_checked(&serde_json::to_string(&value).unwrap())
                .expect_err("a report missing a member must not parse");
            let want = path.join(".").replace(".0", "[0]");
            assert!(err.contains(&format!("`{want} (missing)`")), "{err}");
        }
    }

    #[test]
    fn global_sink_is_a_singleton() {
        let a = global() as *const TelemetrySink;
        let b = global() as *const TelemetrySink;
        assert_eq!(a, b);
    }
}
