//! Run-observatory invariants: the trend verdict must
//! reproduce exactly from the same registry, the run registry must list
//! in recording order, and malformed journal lines must be counted rather
//! than fatal.
//!
//! These tests toggle the process-wide telemetry switch, so every test
//! that touches it serializes on one lock (test binaries run their tests
//! on concurrent threads within one process).

use autoblox::constraints::Constraints;
use autoblox::journal::{Journal, JournalLine};
use autoblox::obs;
use autoblox::report::{Summary, Thresholds};
use autoblox::telemetry;
use autoblox::tuner::{Tuner, TunerOptions};
use autoblox::validator::{Validator, ValidatorOptions};
use autoblox::WatchState;
use iotrace::gen::WorkloadKind;
use ssdsim::config::presets;
use std::sync::Mutex;

static SWITCH_LOCK: Mutex<()> = Mutex::new(());

fn quick_validator(events: usize) -> Validator {
    Validator::new(ValidatorOptions {
        trace_events: events,
        ..Default::default()
    })
}

fn smoke_options() -> TunerOptions {
    // speculative_batch stays at the default (1): the speculative
    // prefetcher emits spans for wasted lookahead, so a thread-derived
    // depth would make the journal line multiset thread-dependent.
    TunerOptions {
        max_iterations: 2,
        sgd_iterations: 2,
        convergence_window: 2,
        non_target: vec![WorkloadKind::WebSearch],
        ..Default::default()
    }
}

/// Runs a journaled smoke tune and returns the journal text.
fn journaled_tune() -> String {
    telemetry::set_enabled(true);
    autoblox::telemetry::global().clear();

    let path = std::env::temp_dir().join(format!(
        "autoblox-test-obsruns-{}.jsonl",
        std::process::id()
    ));
    let path_str = path.to_string_lossy().into_owned();

    let journal = Journal::create(&path_str).expect("journal opens");
    autoblox::telemetry::global().attach_journal(journal.handle());

    let v = quick_validator(200);
    let tuner = Tuner::new(Constraints::paper_default(), &v, smoke_options());
    let outcome = autoblox::telemetry::global().phase("tune", || {
        tuner.tune(WorkloadKind::Database, &presets::intel_750(), &[], None)
    });
    autoblox::telemetry::global().record_outcome(&outcome);

    autoblox::telemetry::global().detach_journal();
    journal.finish(&path_str).expect("journal closes");
    telemetry::set_enabled(false);

    let text = std::fs::read_to_string(&path).expect("journal readable");
    std::fs::remove_file(&path).ok();
    for line in text.lines() {
        assert!(JournalLine::parse(line).is_ok(), "unparsed line: {line}");
    }
    text
}

fn summary(category: &str, grade: f64, sim_runs: u64, wall_ns: u64, threads: u64) -> Summary {
    let mut s = Summary::of(&Default::default());
    s.command = "tune".to_string();
    s.category = category.to_string();
    s.device_family = "homogeneous".to_string();
    s.seed = 7;
    s.best_grade = Some(grade);
    s.iterations = 4;
    s.simulator_runs = sim_runs;
    s.calibration.coverage_1s = 0.7;
    s.calibration.points = 3;
    s.threads = threads;
    s.wall_ns = wall_ns;
    s
}

/// The trend verdict reproduces byte-exactly from the same registry, and
/// host-varying fields (wall time, thread count) cannot influence it.
#[test]
fn trend_verdict_is_deterministic_and_ignores_wall_time() {
    let db = autodb::Store::in_memory();
    for (wall, threads) in [(10, 1), (99, 4), (1234, 8)] {
        obs::record_run(&db, &summary("Database", 0.5, 100, wall, threads)).expect("records");
    }
    let thresholds = Thresholds::default();
    let a = serde_json::to_string_pretty(
        &serde_json::to_value(obs::trend(&db, &thresholds, None).expect("trend computes"))
            .expect("to value"),
    )
    .expect("serializes");
    let b = serde_json::to_string_pretty(
        &serde_json::to_value(obs::trend(&db, &thresholds, None).expect("trend computes"))
            .expect("to value"),
    )
    .expect("serializes");
    assert_eq!(a, b, "same registry, same verdict bytes");
    assert!(a.contains("\"pass\": true"), "stable history passes: {a}");
    assert!(
        !a.contains("wall_ns") && !a.contains("\"threads\""),
        "host-varying fields stay out of the verdict"
    );

    // A grade collapse in the newest run flips the verdict.
    obs::record_run(&db, &summary("Database", 0.1, 100, 55, 2)).expect("records");
    let drifted = obs::trend(&db, &thresholds, None).expect("trend computes");
    assert!(!drifted.pass, "grade collapse must be flagged");
    assert!(drifted.drifts.iter().any(|d| d.contains("best_grade")));
}

/// Listing the registry returns recording order (sequence-numbered keys
/// sort lexicographically == numerically), stable across repeated reads,
/// and the fingerprint strips exactly the host-varying fields.
#[test]
fn runs_list_order_is_stable_and_fingerprints_drop_host_fields() {
    let db = autodb::Store::in_memory();
    // Interleave categories — per-category sequences stay independent —
    // and include a category containing the key separator.
    obs::record_run(&db, &summary("Database", 0.5, 10, 1, 1)).expect("records");
    obs::record_run(&db, &summary("WebSearch", 0.2, 30, 2, 2)).expect("records");
    obs::record_run(&db, &summary("Database", 0.6, 11, 3, 4)).expect("records");
    obs::record_run(&db, &summary("odd:category", 0.1, 5, 4, 8)).expect("records");

    let first = obs::list_runs(&db).expect("lists");
    let second = obs::list_runs(&db).expect("lists");
    let keys: Vec<&str> = first.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        vec![
            "run:Database:000001",
            "run:Database:000002",
            "run:WebSearch:000001",
            "run:odd:category:000001",
        ]
    );
    assert_eq!(first, second, "listing is read-only and stable");

    // Two runs of the same work on different hosts fingerprint the same.
    let fast = summary("Database", 0.5, 10, 1_000, 1).fingerprint();
    let slow = summary("Database", 0.5, 10, 9_999_999, 16).fingerprint();
    assert_eq!(fast, slow, "wall time and thread count are not substance");

    // Malformed keys are rejected before any store I/O happens.
    assert!(obs::parse_run_key("bogus").is_err());
    assert!(obs::parse_run_key("run:Database:12").is_err());
    assert!(obs::parse_run_key("run:odd:category:000001").is_ok());
}

/// Truncated, binary, and untagged journal lines are skipped with a
/// count; the watcher keeps going and still produces a full snapshot.
#[test]
fn garbage_journal_lines_are_counted_not_fatal() {
    let _guard = SWITCH_LOCK.lock().unwrap();

    let mut journal = journaled_tune();
    // Simulate a torn tail plus assorted corruption mid-stream.
    journal.push_str("{\"t\":\"iteration\",\"workload\":\"Datab\n");
    journal.push_str("\u{1}\u{2}binary garbage\n");
    journal.push_str("{\"no_tag\":true}\n");

    let mut state = WatchState::new();
    for line in journal.lines() {
        state.ingest(line);
    }
    let counts = state.counts();
    assert_eq!(
        counts.skipped, 3,
        "each malformed line is counted: {counts:?}"
    );
    assert!(state.summary_seen(), "the real stream still parsed");
    let snap = serde_json::to_string_pretty(&state.snapshot(false)).expect("serializes");
    assert!(snap.contains("\"skipped\": 3"), "snapshot reports skips");
}
