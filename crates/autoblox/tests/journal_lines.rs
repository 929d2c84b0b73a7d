//! The run journal's line format.
//!
//! Every [`JournalLine`] kind round-trips through `to_line` / `parse`, and a
//! line of a known kind with one member missing or mistyped is a
//! line-numbered exit-2 error in `trace export`.
//!
//! `fixtures/journal_parent/journal.jsonl` was written by the build before
//! journal lines had a type: a pinned single-threaded `tune database
//! --iterations 3 --events 300 --telemetry … --journal …` (its masked
//! `argv` also names the since-retired speculation flag) followed by a
//! run of the since-retired `place` command. Its two `placement` lines,
//! its five `progress` lines (a kind retired with the `watch` dashboard
//! that read it) and its forty `series` and forty `bottleneck` lines
//! (retired with the device time-series sampler) now read as unknown
//! kinds. Beside it is what that build printed for it:
//! `trace export --chrome` (`chrome.json`) and `trace export --csv` of the
//! journal without its `series` lines (`calibration.csv`). This build must
//! print the same bytes for the whole journal — the Chrome trace less the
//! `tuner.progress` instants the retired lines became — and a fresh
//! journal of the same tune must carry the same lines, the retired kinds
//! aside, once the members that vary by host are masked — except its span
//! lines and the summary that counts them. Each validation's timed and
//! saturated replays have since got a keyed span of their own
//! (`validator.timed`, `validator.saturated`, the new parents of `sim.run`
//! and `sim.drain`), so those lines are pinned to
//! `fixtures/tune_spans.jsonl`, the same tune's span and summary lines as
//! the first build with those spans wrote them.

use autoblox::journal::{
    IterationLine, JournalLine, MetaLine, ModelLine, Skipped, SpanLine, SummaryLine, JOURNAL_SCHEMA,
};
use autoblox::telemetry::PhaseRecord;
use serde_json::Value;
use ssdsim::BottleneckReport;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/journal_parent")
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
        JournalLine::Phase(PhaseRecord {
            name: "tune".to_string(),
            wall_ns: 123,
        }),
        JournalLine::Summary(SummaryLine {
            spans_written: 10,
            events_written: 20,
            spans_dropped: 1,
            events_dropped: 2,
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
    assert_eq!(tags.len(), 6, "one line per kind: {tags:?}");
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
    let text = std::fs::read_to_string(&journal).expect("fixture journal");
    let mut retired: Vec<String> = Vec::new();
    let mut models = 0;
    for line in text.lines() {
        match JournalLine::parse(line) {
            Ok(JournalLine::Model(_)) => models += 1,
            Ok(_) => {}
            Err(Skipped::Unknown(kind)) => retired.push(kind),
            Err(e) => panic!("{line}: {e:?}"),
        }
    }
    assert!(models > 0);
    retired.sort();
    retired.dedup_by(|a, b| a == b);
    assert_eq!(retired, ["bottleneck", "placement", "progress", "series"]);
    let retired_lines = |kind: &str| text.matches(&format!(r#""t":"{kind}""#)).count();
    assert_eq!(
        ["placement", "progress", "series", "bottleneck"].map(retired_lines),
        [2, 5, 40, 40]
    );

    for (flag, expected) in [("--chrome", "chrome.json"), ("--csv", "calibration.csv")] {
        let out = scratch(expected);
        let args = [
            "trace",
            "export",
            flag,
            journal.to_str().unwrap(),
            out.to_str().unwrap(),
        ];
        let run = autoblox(&args);
        assert!(run.status.success(), "{args:?}: {:?}", run.stderr);
        let ours = std::fs::read(&out).expect("export written");
        let mut parent = std::fs::read(fixture(expected)).unwrap();
        if expected == "chrome.json" {
            parent = without_progress_events(&parent);
        }
        assert_same_bytes(&ours, &parent, expected);
        std::fs::remove_file(out).ok();
    }
}

/// A Chrome trace without its `tuner.progress` instants, serialized as the
/// exporter writes it.
fn without_progress_events(chrome: &[u8]) -> Vec<u8> {
    let text = std::str::from_utf8(chrome).expect("a Chrome trace is UTF-8");
    let Ok(Value::Object(mut doc)) = serde_json::from_str::<Value>(text) else {
        panic!("a Chrome trace is an object")
    };
    let Some(Value::Array(events)) = doc.get_mut("traceEvents") else {
        panic!("traceEvents array expected")
    };
    let before = events.len();
    events.retain(|e| e["name"] != "tuner.progress");
    assert_eq!(before - events.len(), 5, "one instant per progress line");
    serde_json::to_string(&Value::Object(doc))
        .unwrap()
        .into_bytes()
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

/// A journal's lines up to its first `summary`, host-varying members
/// nulled, sorted.
fn masked_tune_lines(journal: &str) -> Vec<String> {
    let mut lines = Vec::new();
    for line in journal.lines() {
        let Ok(Value::Object(mut members)) = serde_json::from_str::<Value>(line) else {
            panic!("not a JSON object: {line}");
        };
        for key in HOST_VARYING {
            if let Some(v) = members.get_mut(key) {
                *v = Value::Null;
            }
        }
        let last = members.get("t") == Some(&Value::Str("summary".to_string()));
        lines.push(serde_json::to_string(&Value::Object(members)).unwrap());
        if last {
            break;
        }
    }
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
    std::fs::remove_file(journal).ok();
    std::fs::remove_file(telemetry).ok();
    let spans = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/tune_spans.jsonl");
    let spans = std::fs::read_to_string(spans).expect("span fixture");
    // Span and summary lines against the span fixture, the rest against
    // the parent's journal, less the retired `progress`, `series` and
    // `bottleneck` lines — which the fixture's summary still counts among
    // the events written.
    let is_span =
        |line: &String| line.contains(r#""t":"span""#) || line.contains(r#""t":"summary""#);
    let is_retired = |line: &String| {
        ["progress", "series", "bottleneck"]
            .iter()
            .any(|kind| line.contains(&format!(r#""t":"{kind}""#)))
    };
    let (ours_spans, ours_rest): (Vec<_>, Vec<_>) =
        masked_tune_lines(&ours).into_iter().partition(is_span);
    let (parent_retired, parent_rest): (Vec<_>, Vec<_>) = masked_tune_lines(&parent)
        .into_iter()
        .filter(|l| !is_span(l))
        .partition(is_retired);
    assert_eq!(parent_retired.len(), 5 + 32 + 32);
    let spans: String = spans
        .lines()
        .map(|line| match JournalLine::parse(line) {
            Ok(JournalLine::Summary(mut summary)) => {
                summary.events_written -= parent_retired.len() as u64;
                JournalLine::Summary(summary).to_line() + "\n"
            }
            _ => format!("{line}\n"),
        })
        .collect();
    for (ours, expected) in [
        (ours_rest, parent_rest),
        (ours_spans, masked_tune_lines(&spans)),
    ] {
        assert_eq!(ours.len(), expected.len(), "line count");
        for (a, b) in ours.iter().zip(&expected) {
            assert_eq!(a, b);
        }
    }
}
