//! The run journal's line format.
//!
//! Every [`JournalLine`] kind round-trips through `to_line` / `parse`, and a
//! line of a known kind with one member missing or mistyped is a
//! line-numbered exit-2 error in `trace export`.
//!
//! `fixtures/tune_journal/` holds what the parent build — the one that
//! last re-recorded it — wrote for a pinned tune. From `crates/autoblox`:
//!
//! ```text
//! AUTOBLOX_THREADS=1 autoblox tune database --iterations 3 --events 300 \
//!     --journal tests/fixtures/tune_journal/journal.jsonl
//! autoblox trace export --chrome tests/fixtures/tune_journal/journal.jsonl \
//!     tests/fixtures/tune_journal/chrome.json
//! ```
//!
//! This build must print the same bytes for that journal, and a fresh
//! journal of the same tune must carry the same lines once the members that
//! vary by host are masked. The fresh journal must also fold to one run
//! whose `tune` and `stats` lines agree.

use autoblox::journal::{
    IterationLine, JournalLine, MetaLine, ModelLine, Skipped, SpanLine, StatsLine, SummaryLine,
    TuneLine, JOURNAL_SCHEMA,
};
use autoblox::telemetry::{PhaseRecord, RunReport};
use autoblox::validator::ValidatorStats;
use mlkit::parallel::PoolStats;
use serde_json::Value;
use ssdsim::BottleneckReport;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/tune_journal")
        .join(name)
}

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("abx-journal-lines-{}-{name}", std::process::id()))
}

fn autoblox(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_autoblox"))
        .env("AUTOBLOX_THREADS", "1")
        .args(args)
        .output()
        .expect("binary runs")
}

/// One line of every kind, no member at its default.
fn every_kind() -> Vec<JournalLine> {
    let report = BottleneckReport::from_totals(1_000, 400, 200, 100, 100, 100, 50);
    vec![
        JournalLine::Meta(MetaLine {
            schema: JOURNAL_SCHEMA.to_string(),
            threads: 4,
            argv: vec!["autoblox".to_string(), "tune".to_string()],
        }),
        JournalLine::Span(SpanLine {
            id: "00000000000000aa".to_string(),
            parent: "0000000000000001".to_string(),
            name: "sim.run".to_string(),
            disc: "0000000000000007".to_string(),
            start_ns: 1_000,
            dur_ns: 5_000,
            thread: 2,
        }),
        JournalLine::Iteration(IterationLine {
            workload: "Database".to_string(),
            iteration: 3,
            candidates_considered: 40,
            sgd_steps: 5,
            surrogate_fit_ns: 9_000,
            exploration_distance: 4,
            best_grade: 0.25,
            convergence_delta: -1.0,
            validations: 6,
            wall_ns: 70_000,
            bottleneck: report,
        }),
        JournalLine::Model(ModelLine {
            workload: "Database".to_string(),
            iteration: 3,
            predicted_mean: 0.5,
            predicted_std: 0.1,
            calibrated: true,
            realized_grade: 0.55,
            explore_share: 0.2,
            exploit_share: 0.8,
            decision_margin: 0.05,
            kernel_length_scale: 1.5,
        }),
        JournalLine::Tune(TuneLine {
            workload: "Database".to_string(),
            iterations: 3,
            validations: 12,
            best_grade: 0.25,
        }),
        JournalLine::Phase(PhaseRecord {
            name: "tune".to_string(),
            wall_ns: 123,
        }),
        JournalLine::Stats(StatsLine {
            validator: ValidatorStats {
                simulator_runs: 12,
                cache_hits: 3,
                cache_misses: 12,
                simulate_ns: 4_000,
                ..Default::default()
            },
            pool: PoolStats {
                batches: 2,
                jobs: 4,
                ..Default::default()
            },
        }),
        JournalLine::Summary(SummaryLine {
            spans_written: 10,
            events_written: 20,
            spans_dropped: 1,
        }),
    ]
}

#[test]
fn every_kind_round_trips() {
    let mut tags = Vec::new();
    for line in every_kind() {
        let text = line.to_line();
        assert_eq!(JournalLine::parse(&text), Ok(line), "{text}");
        let value: Value = serde_json::from_str(&text).expect("a line is JSON");
        tags.push(value["t"].as_str().expect("a tag").to_string());
    }
    tags.sort();
    tags.dedup();
    assert_eq!(tags.len(), 8, "one line per kind: {tags:?}");
}

/// `line` with its alphabetically first member removed, then mistyped.
fn damaged(line: &JournalLine) -> [String; 2] {
    let Ok(Value::Object(members)) = serde_json::from_str::<Value>(&line.to_line()) else {
        panic!("a line is an object")
    };
    let key = members
        .keys()
        .find(|k| *k != "t")
        .expect("a member")
        .clone();
    let mut missing = members.clone();
    missing.remove(&key);
    let mut mistyped = members;
    mistyped.insert(key, Value::Array(vec![Value::Null]));
    [missing, mistyped].map(|m| serde_json::to_string(&Value::Object(m)).unwrap())
}

#[test]
fn a_damaged_line_is_rejected_by_trace_export() {
    let meta = every_kind()[0].to_line();
    let (input, out) = (scratch("damaged.jsonl"), scratch("damaged.json"));
    for line in every_kind() {
        for bad in damaged(&line) {
            assert!(
                matches!(JournalLine::parse(&bad), Err(Skipped::Malformed(..))),
                "{bad}"
            );

            // A damaged meta line is the journal's first line; any other
            // follows a good one.
            let (journal, lineno) = match line {
                JournalLine::Meta(_) => (format!("{bad}\n"), 1),
                _ => (format!("{meta}\n{bad}\n"), 2),
            };
            std::fs::write(&input, journal).unwrap();
            let run = autoblox(&[
                "trace",
                "export",
                "--chrome",
                input.to_str().unwrap(),
                out.to_str().unwrap(),
            ]);
            let stderr = String::from_utf8_lossy(&run.stderr);
            assert_eq!(run.status.code(), Some(2), "{bad}: {stderr}");
            assert!(
                stderr.contains(&format!("journal line {lineno}:")),
                "{stderr}"
            );
        }
    }
    std::fs::remove_file(input).ok();
}

/// Names the first line where two outputs differ.
fn assert_same_bytes(ours: &[u8], parent: &[u8], what: &str) {
    if ours != parent {
        let (ours, parent) = (
            String::from_utf8_lossy(ours),
            String::from_utf8_lossy(parent),
        );
        let line = ours.lines().zip(parent.lines()).position(|(a, b)| a != b);
        panic!(
            "{what} differs from the parent's: first differing line {line:?}, {} vs {} bytes",
            ours.len(),
            parent.len()
        );
    }
}

#[test]
fn the_parent_journal_reads_back_byte_for_byte() {
    let journal = fixture("journal.jsonl");
    let out = scratch("chrome.json");
    let args = [
        "trace",
        "export",
        "--chrome",
        journal.to_str().unwrap(),
        out.to_str().unwrap(),
    ];
    let run = autoblox(&args);
    assert!(run.status.success(), "{args:?}: {:?}", run.stderr);
    let ours = std::fs::read(&out).expect("export written");
    let parent = std::fs::read(fixture("chrome.json")).expect("fixture export");
    assert_same_bytes(&ours, &parent, "chrome.json");
    std::fs::remove_file(out).ok();
}

/// Members whose values vary by host, clock or command line, at any depth.
const HOST_VARYING: [&str; 9] = [
    "start_ns",
    "dur_ns",
    "thread",
    "wall_ns",
    "surrogate_fit_ns",
    "argv",
    "simulate_ns",
    "busy_ns",
    "worker_wall_ns",
];

/// `value` with every [`HOST_VARYING`] member nulled.
fn mask(value: &mut Value) {
    if let Value::Object(members) = value {
        for (key, v) in members.iter_mut() {
            if HOST_VARYING.contains(&key.as_str()) {
                *v = Value::Null;
            } else {
                mask(v);
            }
        }
    }
}

/// A journal's lines, host-varying members nulled, sorted (the writer
/// interleaves span lines with the others as it drains them).
fn masked_lines(journal: &str) -> Vec<String> {
    let mut lines: Vec<String> = journal
        .lines()
        .map(|line| {
            let mut value: Value = serde_json::from_str(line).expect("a JSON line");
            mask(&mut value);
            serde_json::to_string(&value).unwrap()
        })
        .collect();
    lines.sort();
    lines
}

#[test]
fn a_fresh_tune_journal_carries_the_parent_lines() {
    let parent = std::fs::read_to_string(fixture("journal.jsonl")).expect("fixture journal");
    let journal = scratch("tune.jsonl");
    let run = autoblox(&[
        "tune",
        "database",
        "--iterations",
        "3",
        "--events",
        "300",
        "--journal",
        journal.to_str().unwrap(),
    ]);
    assert!(run.status.success(), "{:?}", run.stderr);
    let ours = std::fs::read_to_string(&journal).expect("journal written");
    std::fs::remove_file(journal).ok();

    let (ours_masked, parent_masked) = (masked_lines(&ours), masked_lines(&parent));
    assert_eq!(ours_masked.len(), parent_masked.len(), "line count");
    for (a, b) in ours_masked.iter().zip(&parent_masked) {
        assert_eq!(a, b);
    }

    // The journal folds to its one run, and the run's `tune` line and the
    // closing `stats` line count the same simulations.
    let lines: Vec<JournalLine> = ours
        .lines()
        .map(|line| JournalLine::parse(line).expect("every line parses"))
        .collect();
    let report = RunReport::fold(&lines);
    let [run] = report.tuner.as_slice() else {
        panic!("one tuning run, not {}", report.tuner.len())
    };
    assert_eq!((run.workload.as_str(), run.iterations), ("Database", 3));
    assert_eq!(run.records.len(), 3);
    assert_eq!(run.validations, report.validator.simulator_runs);
    assert!(report.validator.cache_misses > 0);
    assert_eq!(report.threads, 1);
    assert_eq!(report.phases.len(), 1);
}
