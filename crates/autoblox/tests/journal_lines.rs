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
//! vary by host are masked. The fresh journal must also fold to the phases
//! and tuning runs of the report the same command wrote, its one `tune`
//! line agreeing with the report's run.

use autoblox::journal::{
    IterationLine, JournalLine, MetaLine, ModelLine, Skipped, SpanLine, SummaryLine, TuneLine,
    JOURNAL_SCHEMA,
};
use autoblox::telemetry::{PhaseRecord, RunReport};
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
    assert_eq!(tags.len(), 7, "one line per kind: {tags:?}");
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

/// Members whose values vary by host, clock or command line.
const HOST_VARYING: [&str; 6] = [
    "start_ns",
    "dur_ns",
    "thread",
    "wall_ns",
    "surrogate_fit_ns",
    "argv",
];

/// A journal's lines, host-varying members nulled, sorted (the writer
/// interleaves span lines with the others as it drains them).
fn masked_lines(journal: &str) -> Vec<String> {
    let mut lines: Vec<String> = journal
        .lines()
        .map(|line| {
            let Ok(Value::Object(mut members)) = serde_json::from_str::<Value>(line) else {
                panic!("not a JSON object: {line}");
            };
            for key in HOST_VARYING {
                if let Some(v) = members.get_mut(key) {
                    *v = Value::Null;
                }
            }
            serde_json::to_string(&Value::Object(members)).unwrap()
        })
        .collect();
    lines.sort();
    lines
}

#[test]
fn a_fresh_tune_journal_carries_the_parent_lines() {
    let parent = std::fs::read_to_string(fixture("journal.jsonl")).expect("fixture journal");
    let (journal, telemetry) = (scratch("tune.jsonl"), scratch("tune.json"));
    let run = autoblox(&[
        "tune",
        "database",
        "--iterations",
        "3",
        "--events",
        "300",
        "--telemetry",
        telemetry.to_str().unwrap(),
        "--journal",
        journal.to_str().unwrap(),
    ]);
    assert!(run.status.success(), "{:?}", run.stderr);
    let ours = std::fs::read_to_string(&journal).expect("journal written");
    let report = std::fs::read_to_string(&telemetry).expect("report written");
    let report = RunReport::parse_checked(&report).expect("report parses");
    std::fs::remove_file(journal).ok();
    std::fs::remove_file(telemetry).ok();

    let (ours_masked, parent_masked) = (masked_lines(&ours), masked_lines(&parent));
    assert_eq!(ours_masked.len(), parent_masked.len(), "line count");
    for (a, b) in ours_masked.iter().zip(&parent_masked) {
        assert_eq!(a, b);
    }

    // The journal folds to the report's phases and tuning runs: the two
    // are one recording.
    let lines: Vec<JournalLine> = ours
        .lines()
        .map(|line| JournalLine::parse(line).expect("every line parses"))
        .collect();
    let folded = RunReport::fold(&lines);
    assert_eq!(folded.phases, report.phases, "phases");
    assert_eq!(folded.tuner, report.tuner, "tuning runs");
    assert_eq!(report.tuner.len(), 1);
    let tunes: Vec<&TuneLine> = lines
        .iter()
        .filter_map(|line| match line {
            JournalLine::Tune(t) => Some(t),
            _ => None,
        })
        .collect();
    let [tune] = tunes.as_slice() else {
        panic!("one tune line, not {}", tunes.len())
    };
    let run = &report.tuner[0];
    assert_eq!(
        (&tune.workload, tune.iterations, tune.validations),
        (&run.workload, run.iterations, run.validations)
    );
    assert_eq!(tune.best_grade.to_bits(), run.best_grade.to_bits());
    assert_eq!(tune.iterations, 3);
}
