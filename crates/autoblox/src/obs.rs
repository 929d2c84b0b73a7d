//! Run observatory: persistent multi-run history and the trend gate.
//!
//! One tuning (or what-if) invocation is ephemeral; the paper's pipeline
//! is a fleet activity that runs per workload category and per cluster,
//! again and again. This module gives those runs a durable, queryable
//! history:
//!
//! - The record one invocation leaves behind is the report core's
//!   [`Summary`]: command, seed, category, converged grade, simulator-run
//!   count, tail latency, bottleneck attribution and surrogate calibration.
//!   Wall time and the thread limit are carried for humans but excluded
//!   from [`Summary::fingerprint`], so two byte-identical runs on different
//!   hosts summarize identically.
//! - [`record_run`] appends a summary to an [`autodb::Store`] under
//!   `run:<category>:<seq>` keys with fixed-width, zero-padded sequence
//!   numbers — lexicographic key order *is* recording order, so every
//!   consumer (listing, trending) reads history oldest-first for free.
//! - [`trend`] is the multi-run form of `report diff`: the same metric
//!   table ([`crate::report::compare`]), with the last N same-family
//!   summaries of a category as the baseline, so the newest run is judged
//!   against their median. CI runs it so a slow three-PR regression cannot
//!   hide under the pairwise diff threshold.
//!
//! Everything here is deterministic: summaries carry no host-varying field
//! in their fingerprint, aggregation is pure arithmetic over stored values,
//! and the serialized [`TrendReport`] for a given store content is
//! byte-stable (the vendored JSON shim sorts object keys).

use crate::report::{compare, regressions, render_rows, Row, Summary, Thresholds, RUNS_SCHEMA};
use autodb::Store;
use serde::{Deserialize, Serialize};

/// Schema identifier of the serialized [`TrendReport`].
pub const TREND_SCHEMA: &str = "autoblox.trend.v1";

/// Fixed width of the zero-padded per-category sequence number; wide
/// enough that lexicographic and numeric key order agree for any
/// realistic history length.
const SEQ_WIDTH: usize = 6;

/// Formats the registry key for `category`'s run number `seq`.
fn run_key(category: &str, seq: u64) -> String {
    format!("run:{category}:{seq:0SEQ_WIDTH$}")
}

/// Splits a `run:<category>:<seq>` key into its parts.
///
/// # Errors
///
/// Returns a description of the malformation (missing prefix, empty
/// category, or a sequence field that is not exactly `SEQ_WIDTH`
/// digits); the CLI maps this onto usage errors (exit 2).
pub fn parse_run_key(key: &str) -> Result<(String, u64), String> {
    let rest = key
        .strip_prefix("run:")
        .ok_or_else(|| format!("malformed run key `{key}`: expected `run:<category>:<seq>`"))?;
    let (category, seq) = rest
        .rsplit_once(':')
        .ok_or_else(|| format!("malformed run key `{key}`: expected `run:<category>:<seq>`"))?;
    if category.is_empty() {
        return Err(format!("malformed run key `{key}`: empty category"));
    }
    if seq.len() != SEQ_WIDTH || !seq.bytes().all(|b| b.is_ascii_digit()) {
        return Err(format!(
            "malformed run key `{key}`: sequence must be {SEQ_WIDTH} digits"
        ));
    }
    let n: u64 = seq
        .parse()
        .map_err(|e| format!("malformed run key `{key}`: {e}"))?;
    Ok((category.to_string(), n))
}

/// Registers `summary` in `db` under the next free sequence number of its
/// category and returns the assigned key.
///
/// # Errors
///
/// Returns a description of a store write failure, or of an existing
/// malformed key shadowing the sequence counter.
pub fn record_run(db: &Store, summary: &Summary) -> Result<String, String> {
    let prefix = format!("run:{}:", summary.category);
    let next = match db.last_key_with_prefix(&prefix) {
        Some(last) => parse_run_key(&last)?.1 + 1,
        None => 1,
    };
    let key = run_key(&summary.category, next);
    db.put_record(&key, summary)
        .map_err(|e| format!("cannot record run under `{key}`: {e}"))?;
    Ok(key)
}

/// Reads the run recorded under `key`, `None` when there is none.
///
/// # Errors
///
/// Returns a description of a record that fails to deserialize or carries
/// a schema other than [`RUNS_SCHEMA`].
pub fn read_run(db: &Store, key: &str) -> Result<Option<Summary>, String> {
    let summary: Option<Summary> = db
        .get_record(key)
        .map_err(|e| format!("cannot read run `{key}`: {e}"))?;
    match summary {
        Some(s) if s.schema != RUNS_SCHEMA => Err(format!(
            "run `{key}` has unknown schema `{}` (expected `{RUNS_SCHEMA}`)",
            s.schema
        )),
        other => Ok(other),
    }
}

/// Every recorded run, oldest first per category, categories in
/// lexicographic order (the storage order of the keys).
///
/// # Errors
///
/// Returns a description of the first summary [`read_run`] rejects.
pub fn list_runs(db: &Store) -> Result<Vec<(String, Summary)>, String> {
    let mut runs = Vec::new();
    for key in db.keys_with_prefix("run:") {
        let summary =
            read_run(db, &key)?.ok_or_else(|| format!("run `{key}` vanished mid-listing"))?;
        runs.push((key, summary));
    }
    Ok(runs)
}

/// One category's aggregated trend verdict.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CategoryTrend {
    /// The history family: the first tuned workload's name.
    pub category: String,
    /// Total runs recorded for the category.
    pub runs: u64,
    /// Runs that entered the window (<= `thresholds.window`).
    pub window_used: u64,
    /// Registry key of the newest (judged) run.
    pub latest_key: String,
    /// The metric table's rows, the newest run as the candidate.
    pub metrics: Vec<Row>,
    /// Names of drifted metrics, in row order.
    pub drifts: Vec<String>,
    /// `drifts.is_empty()`.
    pub pass: bool,
}

/// The machine-readable verdict of [`trend`] (schema [`TREND_SCHEMA`]);
/// what `autoblox report trend` prints and the CLI contract's registry row
/// (`crates/autoblox/tests/cli_contract.rs`) acts on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrendReport {
    /// Always [`TREND_SCHEMA`].
    pub schema: String,
    /// The thresholds the verdict was computed against.
    pub thresholds: Thresholds,
    /// Per-category trends, category order = key order.
    pub categories: Vec<CategoryTrend>,
    /// Every drift as `category/metric`, in category order.
    pub drifts: Vec<String>,
    /// Overall verdict: no category drifted.
    pub pass: bool,
}

/// Computes the trend verdict over the recorded history in `db`,
/// optionally restricted to one category. Wall-clock rows are never
/// judged: a history spans hosts.
///
/// # Errors
///
/// Returns a description of an unreadable summary, or of a requested
/// category with no recorded runs.
pub fn trend(
    db: &Store,
    thresholds: &Thresholds,
    category: Option<&str>,
) -> Result<TrendReport, String> {
    let thresholds = Thresholds {
        ignore_time: true,
        ..*thresholds
    };
    let all = list_runs(db)?;
    // Group by category, preserving key (= recording) order.
    let mut groups: Vec<(String, Vec<(String, Summary)>)> = Vec::new();
    for (key, summary) in all {
        if let Some(want) = category {
            if summary.category != want {
                continue;
            }
        }
        match groups.last_mut() {
            Some((cat, members)) if *cat == summary.category => members.push((key, summary)),
            _ => groups.push((summary.category.clone(), vec![(key, summary)])),
        }
    }
    if let Some(want) = category {
        if groups.is_empty() {
            return Err(format!("no recorded runs for category `{want}`"));
        }
    }
    let window = thresholds.window.max(1) as usize;
    let mut categories = Vec::new();
    let mut drifts = Vec::new();
    for (cat, members) in groups {
        let windowed = &members[members.len().saturating_sub(window)..];
        let (latest_key, latest) = windowed.last().expect("group is non-empty");
        // Runs of a different device family are never comparable: a hybrid
        // device legitimately grades and bottlenecks nothing like a
        // homogeneous one, so they are dropped from the baseline rather
        // than reported as drift.
        let baseline: Vec<&Summary> = windowed[..windowed.len() - 1]
            .iter()
            .map(|(_, s)| s)
            .filter(|s| s.family() == latest.family())
            .collect();
        let metrics = compare(&baseline, latest, &thresholds);
        let cat_drifts = regressions(&metrics);
        drifts.extend(cat_drifts.iter().map(|m| format!("{cat}/{m}")));
        categories.push(CategoryTrend {
            category: cat,
            runs: members.len() as u64,
            window_used: windowed.len() as u64,
            latest_key: latest_key.clone(),
            pass: cat_drifts.is_empty(),
            drifts: cat_drifts,
            metrics,
        });
    }
    Ok(TrendReport {
        schema: TREND_SCHEMA.to_string(),
        thresholds,
        categories,
        pass: drifts.is_empty(),
        drifts,
    })
}

/// Renders a run listing as an aligned human-readable table.
pub fn render_runs(runs: &[(String, Summary)]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<28} {:>8} {:<18} {:>12} {:>10} {:>6} {:>10}  {}\n",
        "key", "command", "family", "best_grade", "sim_runs", "iters", "wall_ms", "dominant"
    ));
    for (key, s) in runs {
        out.push_str(&format!(
            "{:<28} {:>8} {:<18} {:>12.6} {:>10} {:>6} {:>10.1}  {}\n",
            key,
            s.command,
            s.family(),
            s.best_grade.unwrap_or(0.0),
            s.simulator_runs,
            s.iterations,
            s.wall_ns as f64 / 1e6,
            s.bottleneck.dominant(),
        ));
    }
    out
}

/// Renders a trend verdict as an aligned human-readable table (what
/// `report trend` writes to stderr next to the JSON verdict on stdout).
pub fn render_trend(report: &TrendReport) -> String {
    let mut out = String::new();
    for cat in &report.categories {
        out.push_str(&format!(
            "category {} — {} run(s), window {}, latest {}\n",
            cat.category, cat.runs, cat.window_used, cat.latest_key
        ));
        out.push_str(&render_rows(&cat.metrics));
    }
    out.push_str(&format!(
        "trend: {} ({} drift(s))\n",
        if report.pass { "PASS" } else { "DRIFT" },
        report.drifts.len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::report::{ewma, median};
    use ssdsim::BottleneckReport;

    fn summary(category: &str, grade: f64, runs: u64) -> Summary {
        let mut s = Summary::of(&Default::default());
        s.command = "tune".to_string();
        s.category = category.to_string();
        s.device_family = "homogeneous".to_string();
        s.seed = 0xA070;
        s.best_grade = Some(grade);
        s.iterations = 4;
        s.simulator_runs = runs;
        s.bottleneck = BottleneckReport::from_totals(1000, 400, 200, 100, 100, 100, 0);
        s.calibration.coverage_1s = 0.7;
        s.calibration.points = 3;
        s.threads = 1;
        s.wall_ns = 123_456_789;
        s
    }

    #[test]
    fn run_keys_round_trip_and_reject_malformations() {
        assert_eq!(run_key("Database", 7), "run:Database:000007");
        assert_eq!(
            parse_run_key("run:Database:000007").unwrap(),
            ("Database".to_string(), 7)
        );
        for bad in [
            "cluster:Database:000007",
            "run:Database",
            "run::000007",
            "run:Database:7",
            "run:Database:00000x",
            "run:Database:0000007",
        ] {
            assert!(parse_run_key(bad).is_err(), "`{bad}` must be rejected");
        }
        // Categories containing `:` still round-trip (rsplit).
        let (cat, seq) = parse_run_key("run:a:b:000002").unwrap();
        assert_eq!((cat.as_str(), seq), ("a:b", 2));
    }

    #[test]
    fn record_run_assigns_monotonic_sequences_per_category() {
        let db = Store::in_memory();
        assert_eq!(
            record_run(&db, &summary("Database", 0.5, 100)).unwrap(),
            "run:Database:000001"
        );
        assert_eq!(
            record_run(&db, &summary("KVStore", 0.4, 90)).unwrap(),
            "run:KVStore:000001"
        );
        assert_eq!(
            record_run(&db, &summary("Database", 0.51, 100)).unwrap(),
            "run:Database:000002"
        );
        let runs = list_runs(&db).unwrap();
        let keys: Vec<&str> = runs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "run:Database:000001",
                "run:Database:000002",
                "run:KVStore:000001"
            ],
            "listing order is key order: per-category oldest-first"
        );
    }

    #[test]
    fn fingerprint_excludes_wall_clock_and_threads() {
        let mut a = summary("Database", 0.5, 100);
        let mut b = a.clone();
        a.wall_ns = 1;
        a.threads = 1;
        b.wall_ns = 999_999;
        b.threads = 16;
        assert_eq!(a.fingerprint(), b.fingerprint());
        let json = serde_json::to_string(&a.fingerprint()).unwrap();
        assert!(!json.contains("wall_ns"));
        assert!(!json.contains("threads"));
        b.best_grade = Some(0.6);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn trend_is_deterministic_and_passes_on_stable_history() {
        let db = Store::in_memory();
        for _ in 0..5 {
            record_run(&db, &summary("Database", 0.5, 100)).unwrap();
        }
        let t = Thresholds::default();
        let a = trend(&db, &t, None).unwrap();
        let b = trend(&db, &t, None).unwrap();
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
        assert!(a.pass, "{:?}", a.drifts);
        assert_eq!(a.categories.len(), 1);
        assert_eq!(a.categories[0].window_used, 5);
    }

    #[test]
    fn trend_flags_grade_drop_and_run_inflation() {
        let db = Store::in_memory();
        for _ in 0..4 {
            record_run(&db, &summary("Database", 0.5, 100)).unwrap();
        }
        record_run(&db, &summary("Database", 0.2, 300)).unwrap();
        let report = trend(&db, &Thresholds::default(), None).unwrap();
        assert!(!report.pass);
        assert!(report.drifts.contains(&"Database/best_grade".to_string()));
        assert!(report.drifts.contains(&"Database/validations".to_string()));
    }

    #[test]
    fn trend_flags_calibration_coverage_below_floor() {
        let db = Store::in_memory();
        for _ in 0..4 {
            record_run(&db, &summary("Database", 0.5, 100)).unwrap();
        }
        let mut drifted = summary("Database", 0.5, 100);
        drifted.calibration.coverage_1s = 0.2;
        record_run(&db, &drifted).unwrap();
        let report = trend(&db, &Thresholds::default(), None).unwrap();
        assert!(!report.pass);
        assert_eq!(
            report.drifts,
            vec!["Database/calibration_coverage_1s".to_string()]
        );
        // Runs without calibration pairs are never judged by the floor.
        let db2 = Store::in_memory();
        for _ in 0..2 {
            let mut s = summary("WebSearch", 0.1, 50);
            s.calibration.coverage_1s = 0.0;
            s.calibration.points = 0;
            record_run(&db2, &s).unwrap();
        }
        let report2 = trend(&db2, &Thresholds::default(), None).unwrap();
        assert!(report2.pass, "{:?}", report2.drifts);
    }

    #[test]
    fn trend_never_compares_across_device_families() {
        let db = Store::in_memory();
        // A healthy homogeneous history, then a first hybrid run whose grade
        // would read as a catastrophic drop if families were compared.
        for _ in 0..4 {
            record_run(&db, &summary("Database", 0.5, 100)).unwrap();
        }
        let mut hybrid = summary("Database", 0.1, 250);
        hybrid.device_family = "hybrid-slc-cache".to_string();
        record_run(&db, &hybrid).unwrap();
        let report = trend(&db, &Thresholds::default(), None).unwrap();
        assert!(report.pass, "{:?}", report.drifts);
        // With no same-family baseline, every metric stays advisory.
        assert!(report.categories[0].metrics.iter().all(|m| !m.regressed));
        // Pre-field records (empty family) still baseline homogeneous runs.
        let mut legacy = summary("Database", 0.5, 100);
        legacy.device_family = String::new();
        assert_eq!(legacy.family(), "homogeneous");
    }

    #[test]
    fn trend_single_run_is_advisory_and_missing_category_errors() {
        let db = Store::in_memory();
        record_run(&db, &summary("Database", 0.5, 100)).unwrap();
        let report = trend(&db, &Thresholds::default(), None).unwrap();
        assert!(report.pass);
        assert!(report.categories[0].metrics.iter().all(|m| !m.checked));
        assert!(trend(&db, &Thresholds::default(), Some("KVStore")).is_err());
        let only = trend(&db, &Thresholds::default(), Some("Database")).unwrap();
        assert_eq!(only.categories.len(), 1);
    }

    #[test]
    fn trend_window_drops_ancient_history() {
        let db = Store::in_memory();
        // Ancient bad runs that a windowed baseline must ignore.
        for _ in 0..10 {
            record_run(&db, &summary("Database", -5.0, 10_000)).unwrap();
        }
        for _ in 0..8 {
            record_run(&db, &summary("Database", 0.5, 100)).unwrap();
        }
        let t = Thresholds {
            window: 8,
            ..Thresholds::default()
        };
        let report = trend(&db, &t, None).unwrap();
        assert!(report.pass, "{:?}", report.drifts);
        assert_eq!(report.categories[0].window_used, 8);
        assert_eq!(report.categories[0].runs, 18);
    }

    #[test]
    fn median_and_ewma_are_exact() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((ewma(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        // 0.3 * 2 + 0.7 * 1 = 1.3
        assert!((ewma(&[1.0, 2.0]) - 1.3).abs() < 1e-12);
    }
}
