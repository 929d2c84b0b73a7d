//! Structured telemetry collection for the tuning pipeline.
//!
//! The low-level switch and primitives live in the workspace-root
//! `telemetry` crate (re-exported here); this module adds the collection
//! layer: a thread-safe [`TelemetrySink`] that keeps one run's record as
//! one log of [`JournalLine`]s (pipeline phases, tuner iterations, model
//! views, finished tuning runs), and a [`RunReport`] that is a fold over
//! that log plus snapshots of the validator's cache and simulator
//! statistics and the worker pool's utilization, serialized to JSON by the
//! `--telemetry out.json` CLI flag. A [`Journal`](crate::journal::Journal)
//! writes the same lines to disk, so the report and the journal of a run
//! cannot disagree. `autoblox explain` is the report's one reader, through
//! [`RunReport::parse_checked`].
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

use crate::journal::JournalLine;
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
    pub const REQUIRED_KEYS: [&'static str; 7] = [
        "schema",
        "enabled",
        "threads",
        "phases",
        "tuner",
        "validator",
        "pool",
    ];

    /// Folds recorded lines into a report's phases and tuning runs, in
    /// recording order; every other member is left at its default. A `tune`
    /// line closes its workload's run: the `iteration` lines of that
    /// workload since its previous `tune` line become the run's records,
    /// each completed by the `model` line of the same iteration that
    /// follows it. `meta`, `span` and `summary` lines fold to nothing.
    pub fn fold<'a>(lines: impl IntoIterator<Item = &'a JournalLine>) -> RunReport {
        let mut report = RunReport {
            schema: RunReport::SCHEMA.to_string(),
            ..RunReport::default()
        };
        // Each workload's records not yet closed by a `tune` line.
        let mut open: BTreeMap<&str, Vec<IterationRecord>> = BTreeMap::new();
        for line in lines {
            match line {
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
                JournalLine::Meta(_) | JournalLine::Span(_) | JournalLine::Summary(_) => {}
            }
        }
        report
    }

    /// Parses and validates a serialized report: the JSON must parse, carry
    /// every required top-level key, match the schema identifier, and
    /// deserialize back into a [`RunReport`].
    ///
    /// Only the current schema (`autoblox.telemetry.v3`) is read as is.
    /// Older minor versions (`.v1`, `.v2`) lack fields every reader now
    /// relies on and are rejected with a "re-record" message — no
    /// checked-in report uses them. Newer minor versions (`.v4` and up)
    /// are read best-effort, unknown fields ignored, so a new producer and
    /// an old reader can coexist.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first problem found; for
    /// field-level mismatches the message names the exact field path (e.g.
    /// `validator.simulate_ns`).
    pub fn parse_checked(json: &str) -> Result<RunReport, String> {
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
        let schema = value["schema"].as_str().unwrap_or("");
        match schema_minor_version(schema) {
            Some(1 | 2) => {
                return Err(format!(
                    "schema `{schema}` is no longer read (expected `{}`); re-record the \
                     report with this build",
                    Self::SCHEMA
                ))
            }
            // The current version, or a newer one read best-effort.
            Some(_) => {}
            None => {
                return Err(format!(
                    "unknown schema `{schema}` (expected `{}`)",
                    Self::SCHEMA
                ))
            }
        }
        serde_json::from_str(json).map_err(|e| {
            let e = e.to_string();
            let missing = e
                .strip_prefix("missing field `")
                .and_then(|r| r.split('`').next());
            match locate_schema_mismatch(&value, missing) {
                Some(path) => format!("schema mismatch at `{path}`: {e}"),
                None => format!("schema mismatch: {e}"),
            }
        })
    }
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
        ..Default::default()
    };
    serde_json::to_value(&report).expect("template serializes")
}

/// Walks `candidate` against the template and names the first field that
/// does not fit the schema: a wrong type, a number an integer member cannot
/// hold, or an absent member named `missing` (the field serde reported
/// missing, without its path). `None` when the document is structurally
/// conformant — then the deserializer's own error message is the best
/// description available.
///
/// Every integer member of a [`RunReport`] is a `u64`, so an integer in the
/// template stands for an unsigned one.
fn locate_schema_mismatch(candidate: &serde_json::Value, missing: Option<&str>) -> Option<String> {
    fn kind(v: &serde_json::Value, template: bool) -> &'static str {
        use serde_json::Value::*;
        match v {
            Null => "null",
            Bool(_) => "boolean",
            Int(_) if template => "unsigned integer",
            Int(i) if *i < 0 => "negative integer",
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
            // Numbers are interchangeable where an unsigned integer member
            // can hold them (the deserializer's `i64` view, then `u64`);
            // everything else must match the template's kind exactly.
            (Int(_), Int(i)) if *i >= 0 => None,
            (Int(_), Float(f)) if f.fract() == 0.0 && (0.0..9.2e18).contains(f) => None,
            (Float(_), Float(_)) | (Float(_), Int(_)) => None,
            (Bool(_), Bool(_)) | (Str(_), Str(_)) | (Null, _) => None,
            _ => Some(format!(
                "{path} (expected {}, got {})",
                kind(tpl, true),
                kind(got, false)
            )),
        }
    }
    walk(&schema_template(), candidate, "", missing)
}

/// Thread-safe collector for structured telemetry: one log of
/// [`JournalLine`]s in recording order.
///
/// Recording is a no-op while the process-wide switch is off (the line is
/// not even built), so a sink can sit on the hot path unconditionally.
/// Reports are taken with [`TelemetrySink::report`], which folds the log
/// and snapshots the worker pool and (optionally) a validator.
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

    /// Snapshots everything recorded into a serializable [`RunReport`]: the
    /// fold of the recorded lines plus the worker pool's counters and, when
    /// given, the validator's cache and simulator statistics.
    pub fn report(&self, validator: Option<&Validator>) -> RunReport {
        let validator = validator.map(Validator::stats).unwrap_or_default();
        RunReport {
            enabled: enabled(),
            threads: mlkit::parallel::max_threads() as u64,
            latency_percentiles: validator.sim.latency_buckets.percentiles(),
            bottleneck: validator.sim.bottleneck(),
            validator,
            pool: mlkit::parallel::pool_stats(),
            ..RunReport::fold(self.lines.lock().iter())
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
        sink.push(|| unreachable!("a disabled sink builds no line"));
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
    fn newer_minor_schema_parses_best_effort() {
        let report = RunReport {
            schema: "autoblox.telemetry.v4".to_string(),
            ..Default::default()
        };
        let mut value = serde_json::to_value(&report).expect("to value");
        if let serde_json::Value::Object(map) = &mut value {
            map.insert("added_in_v4".to_string(), serde_json::Value::Bool(true));
        }
        let json = serde_json::to_string(&value).expect("serializes");
        let parsed =
            RunReport::parse_checked(&json).expect("a newer minor version must still parse");
        assert_eq!(parsed, report, "unknown members are ignored");
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
        // Corrupt one deeply nested u64: a string, a fraction, a negative
        // integer, and an integral float past every integer type.
        for bad in [
            serde_json::Value::Str("lots".to_string()),
            serde_json::Value::Float(1.5),
            serde_json::Value::Int(-1),
            serde_json::Value::Float(1e300),
        ] {
            let mut value = serde_json::to_value(&report).expect("to value");
            if let serde_json::Value::Object(map) = &mut value {
                if let Some(serde_json::Value::Object(v)) = map.get_mut("validator") {
                    v.insert("cache_hits".to_string(), bad.clone());
                }
            }
            let err = RunReport::parse_checked(&serde_json::to_string(&value).unwrap())
                .expect_err("a corrupted field must not parse");
            assert!(
                err.contains("`validator.cache_hits (expected unsigned integer"),
                "{bad:?}: error must name the exact field path: {err}"
            );
        }
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
