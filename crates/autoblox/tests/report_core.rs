//! `explain` prints what the parent build printed.
//!
//! `tests/fixtures/explain/<golden>.json` holds what `explain --json`
//! printed for each report golden under `scripts/golden/` when the parent
//! build — the one that last re-recorded them — wrote it. From
//! `crates/autoblox`:
//!
//! ```text
//! autoblox explain --json ../../scripts/golden/<golden>.json \
//!     > tests/fixtures/explain/<golden>.json
//! ```
//!
//! This build must print the same bytes: the summary, phases, bottleneck
//! shares and the model document with its calibration and decision
//! timeline.
//!
//! The same file holds the CLI contract of the reader commands and of the
//! writers' inputs: malformed input of every kind is a one-line exit-2
//! error, retired commands and mistyped flags are usage errors.

use autoblox::journal::{
    IterationLine, JournalLine, MetaLine, ModelLine, SummaryLine, JOURNAL_SCHEMA,
};
use autoblox::report::Summary;
use autoblox::telemetry::{PhaseRecord, RunReport};
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const GOLDENS: [&str; 2] = ["telemetry-database", "family-smoke"];

fn golden_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../../scripts/golden/{name}.json"))
}

fn golden(name: &str) -> RunReport {
    let json = std::fs::read_to_string(golden_path(name)).expect("golden readable");
    RunReport::parse_checked(&json).expect("golden parses")
}

fn autoblox(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_autoblox"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn single_report_views_reproduce_the_parent() {
    for name in GOLDENS {
        let path = golden_path(name);
        let out = autoblox(&["explain", "--json", path.to_str().unwrap()]);
        assert!(out.status.success(), "{name}: {:?}", out.stderr);
        let fixture = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("tests/fixtures/explain/{name}.json"));
        let parent = std::fs::read_to_string(fixture).expect("explain fixture");
        let ours = String::from_utf8(out.stdout).expect("UTF-8");
        if ours != parent {
            let line = ours.lines().zip(parent.lines()).position(|(a, b)| a != b);
            panic!("{name}: `explain --json` differs from the parent's at line {line:?}");
        }
        // Both goldens are stalled searches whose two model-picked
        // decisions were ties.
        let out = autoblox(&["explain", path.to_str().unwrap()]);
        let text = String::from_utf8(out.stdout).expect("UTF-8");
        assert!(
            text.contains("  2 of 2 decisions were ties, picked by candidate order\n"),
            "{name}: {text}"
        );
        assert!(text.contains("stalled at the reference"), "{name}: {text}");
    }
}

// --- CLI contract of the reader commands ---------------------------------

/// What a reader command is handed.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Kind {
    Report,
    Journal,
}

/// A small complete journal: meta, a phase, an iteration with its model
/// line and the summary.
fn journal() -> String {
    let lines = [
        JournalLine::Meta(MetaLine {
            schema: JOURNAL_SCHEMA.to_string(),
            threads: 1,
            argv: Vec::new(),
        }),
        JournalLine::Phase(PhaseRecord {
            name: "tune".to_string(),
            wall_ns: 2000,
        }),
        JournalLine::Iteration(IterationLine {
            workload: "Database".to_string(),
            iteration: 1,
            best_grade: 0.5,
            validations: 2,
            ..Default::default()
        }),
        JournalLine::Model(ModelLine {
            workload: "Database".to_string(),
            iteration: 1,
            predicted_mean: 0.4,
            predicted_std: 0.1,
            calibrated: true,
            realized_grade: 0.5,
            ..Default::default()
        }),
        JournalLine::Summary(SummaryLine {
            events_written: 2,
            ..Default::default()
        }),
    ];
    lines.iter().map(|l| l.to_line() + "\n").collect()
}

/// 16 truncation points spread over `bytes`, none on either side of a
/// newline (a line-structured file cut between records, or only its last
/// newline lost, is a shorter valid file).
fn truncations(bytes: &[u8]) -> Vec<Vec<u8>> {
    (1..=16)
        .map(|i| {
            let mut at = bytes.len() * i / 17;
            while at == 0 || bytes[at - 1] == b'\n' || bytes[at] == b'\n' {
                at += 1;
            }
            bytes[..at].to_vec()
        })
        .collect()
}

/// Sets the member at `path`; a numeric key indexes an array.
fn set(doc: &mut Value, path: &[&str], value: Value) {
    let (last, parents) = path.split_last().unwrap();
    let mut at = doc;
    for key in parents {
        at = match at {
            Value::Object(map) => map.get_mut(*key).expect("member exists"),
            Value::Array(items) => &mut items[key.parse::<usize>().expect("array index")],
            _ => panic!("object or array expected at {key}"),
        };
    }
    let Value::Object(map) = at else {
        panic!("object expected")
    };
    map.insert(last.to_string(), value);
}

/// Every command that loads a report or journal turns truncated,
/// wrong-schema, wrong-kind and wrong-typed input into exit 2 and one
/// stderr line naming the damage — never a panic. A report or journal is
/// read only at the schema this build writes. The AutoDB store `tune --db` reads is held to its own
/// rules: a store cut inside its last record is a crash's torn tail, read
/// as the records before it; an undecodable `memo:` record is a miss; a
/// bad line anywhere else is exit 2 and one line. A store the retired run
/// registry also wrote `run:` records into replays in full and keeps them.
#[test]
fn malformed_input_is_a_clean_cli_error_for_every_reader() {
    let dir = std::env::temp_dir().join(format!("abx-readers-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let report_json = std::fs::read_to_string(golden_path("telemetry-database")).unwrap();
    let mutated_report = |path: &[&str], value: Value| {
        let mut doc: Value = serde_json::from_str(&report_json).unwrap();
        set(&mut doc, path, value);
        serde_json::to_string_pretty(&doc).unwrap().into_bytes()
    };
    let str_value = |s: &str| Value::Str(s.to_string());

    let report_tagged = |schema: &str| mutated_report(&["schema"], str_value(schema));
    let progress = r#"{"iteration":3,"percent":0.4375,"t":"progress","total":8}"#;

    // (kind, valid input, [(damage, input, what the one stderr line names)])
    let inputs = [
        (
            Kind::Report,
            report_json.clone().into_bytes(),
            vec![
                (
                    "schema v0",
                    report_tagged("autoblox.telemetry.v0"),
                    "`autoblox.telemetry.v0`",
                ),
                (
                    "schema v1",
                    report_tagged("autoblox.telemetry.v1"),
                    "`autoblox.telemetry.v1`",
                ),
                (
                    "schema v2",
                    report_tagged("autoblox.telemetry.v2"),
                    "`autoblox.telemetry.v2`",
                ),
                (
                    "schema v4",
                    report_tagged("autoblox.telemetry.v4"),
                    "`autoblox.telemetry.v4`",
                ),
                (
                    "wrong field type",
                    mutated_report(&["validator", "cache_hits"], str_value("lots")),
                    "`validator.cache_hits",
                ),
            ],
        ),
        (
            Kind::Journal,
            journal().into_bytes(),
            vec![
                (
                    "foreign schema",
                    journal()
                        .replace(JOURNAL_SCHEMA, "somethingelse.v9")
                        .into_bytes(),
                    "`somethingelse.v9`",
                ),
                (
                    "schema v2",
                    journal()
                        .replace(JOURNAL_SCHEMA, "autoblox.journal.v2")
                        .into_bytes(),
                    "`autoblox.journal.v2`",
                ),
                (
                    "retired line kind",
                    (journal() + progress + "\n").into_bytes(),
                    "unknown line kind `progress`",
                ),
                (
                    "wrong field type",
                    journal()
                        .replace(r#""iteration":1"#, r#""iteration":"one""#)
                        .into_bytes(),
                    "`iteration` line",
                ),
            ],
        ),
    ];

    let input = dir.join("input");
    let input = input.to_str().unwrap();
    let out_file = dir.join("out");
    let out_file = out_file.to_str().unwrap();
    let readers: [(Vec<&str>, Kind); 2] = [
        (vec!["explain", input], Kind::Report),
        (
            vec!["trace", "export", "--chrome", input, out_file],
            Kind::Journal,
        ),
    ];

    for (args, kind) in &readers {
        let (_, valid, hostile) = inputs.iter().find(|(k, ..)| k == kind).expect("inputs");
        let run = |bytes: &[u8]| {
            std::fs::write(input, bytes).unwrap();
            let out = autoblox(args);
            let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
            assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
            (out.status.code(), stderr)
        };
        let rejected = |label: &str, bytes: &[u8]| {
            let (code, stderr) = run(bytes);
            let lines = stderr.lines().filter(|l| !l.trim().is_empty()).count();
            assert_eq!(code, Some(2), "{args:?} on {label}: {stderr}");
            assert_eq!(lines, 1, "{args:?} on {label}: {stderr}");
            stderr
        };
        // The intact input is accepted, so a rejection below is about the
        // damage and nothing else.
        let (code, stderr) = run(valid);
        assert_eq!(code, Some(0), "{args:?} on valid input: {stderr}");
        for (i, cut) in truncations(valid).iter().enumerate() {
            rejected(&format!("truncation {i}"), cut);
        }
        for (label, bytes, named) in hostile {
            let stderr = rejected(label, bytes);
            assert!(stderr.contains(named), "{args:?} on {label}: {stderr}");
        }
    }
    // A missing file is the same one-line input error.
    std::fs::remove_file(input).unwrap();
    for (args, ..) in &readers {
        let out = autoblox(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    }

    // The store: two `run:` records as the retired run registry wrote them
    // (a run summary tagged `autoblox.runs.v1`), then what one tune paid
    // for.
    let tune = [
        "tune",
        "database",
        "--iterations",
        "1",
        "--events",
        "50",
        "--db",
        input,
    ];
    let mut summary = serde_json::to_value(Summary::of(&golden("telemetry-database"))).unwrap();
    set(&mut summary, &["schema"], str_value("autoblox.runs.v1"));
    let run_keys = ["run:Database:000001", "run:Database:000002"];
    let db = autodb::Store::open(input).expect("store opens");
    for key in run_keys {
        db.put(key, &summary).unwrap();
    }
    drop(db);
    let fresh = autoblox(&tune);
    let fresh_stderr = String::from_utf8_lossy(&fresh.stderr).into_owned();
    assert_eq!(fresh.status.code(), Some(0), "{fresh_stderr}");
    let paid: u64 = fresh_stderr
        .lines()
        .find_map(|l| l.strip_suffix(" validations, 0 from the store"))
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("a fresh store answers nothing: {fresh_stderr}"));
    let store = std::fs::read(input).unwrap();
    let run = |bytes: &[u8]| {
        std::fs::write(input, bytes).unwrap();
        let out = autoblox(&tune);
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(!stderr.contains("panicked"), "{stderr}");
        (out, stderr)
    };
    let (replay, stderr) = run(&store);
    assert_eq!(replay.status.code(), Some(0), "{stderr}");
    assert_eq!(replay.stdout, fresh.stdout);
    assert!(
        stderr.contains(&format!("{paid} validations, {paid} from the store")),
        "{stderr}"
    );
    let keys = autodb::Store::open(input).unwrap().keys();
    assert!(
        run_keys.iter().all(|k| keys.contains(&k.to_string())),
        "{keys:?}"
    );

    for (i, cut) in truncations(&store).iter().enumerate() {
        let (out, stderr) = run(cut);
        assert_eq!(out.status.code(), Some(0), "truncation {i}: {stderr}");
        assert_eq!(out.stdout, fresh.stdout, "truncation {i}");
    }

    let memo_key = {
        std::fs::write(input, &store).unwrap();
        let db = autodb::Store::open(input).unwrap();
        let key = db.keys_with_prefix("memo:").pop().expect("a memo record");
        db.put(&key, &str_value("not a measurement")).unwrap();
        key
    };
    let undecodable = std::fs::read(input).unwrap();
    let (out, stderr) = run(&undecodable);
    assert_eq!(
        out.status.code(),
        Some(0),
        "undecodable {memo_key}: {stderr}"
    );
    assert_eq!(out.stdout, fresh.stdout, "undecodable {memo_key}");

    let second_line = store.iter().position(|&b| b == b'\n').unwrap() + 1;
    let mut garbled = store[..second_line].to_vec();
    garbled.extend_from_slice(b"not json\n");
    garbled.extend_from_slice(&store[second_line..]);
    let (out, stderr) = run(&garbled);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(out.stdout.is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

fn usage_error(args: &[&str]) -> String {
    let out = autoblox(args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} ran");
    stderr
}

#[test]
fn retired_commands_exit_2_with_the_usage_text() {
    let g = golden_path("telemetry-database");
    let g = g.to_str().unwrap();
    for args in [
        vec!["inspect", g],
        vec!["inspect", "diff", g, g],
        vec!["explain", "diff", g, g],
        vec!["watch", g],
        vec!["runs", "list"],
        vec!["runs", "show", "run:Database:000001"],
        vec!["report", "diff", g, g],
        vec!["report", "diff", g, g, "--ignore-time"],
        vec!["report", "trend"],
        vec!["telemetry-check", g],
    ] {
        let stderr = usage_error(&args);
        assert!(stderr.starts_with("usage: autoblox <command>"), "{stderr}");
        assert!(stderr.contains("explain  <telemetry.json>"), "{stderr}");
        for retired in [
            "inspect  ",
            "watch",
            "runs",
            "report",
            "diff",
            "trend",
            "telemetry-check",
            "--ignore",
            "--record",
            "--csv",
            "importance",
        ] {
            assert!(!stderr.contains(retired), "{retired}: {stderr}");
        }
    }
    // A retired flag of a live command is a usage error.
    for (args, message) in [
        (
            vec!["tune", "database", "--record"],
            "error: unknown tune flag \"--record\"",
        ),
        (
            vec!["whatif", "database", "--record"],
            "error: unknown whatif flag \"--record\"",
        ),
        (
            vec!["tune", "database", "--speculate", "2"],
            "error: unknown tune flag \"--speculate\"",
        ),
        (
            vec!["trace", "export", "--csv", "j", "out"],
            "error: unknown trace export format \"--csv\"",
        ),
    ] {
        let stderr = usage_error(&args);
        assert!(stderr.starts_with(message), "{args:?}: {stderr}");
    }
}

/// Constraints or a goal no search can start from are refused before the
/// tune with one line, never a panic: a capacity the pinned reference
/// misses (or that no `u64` byte count holds), a power budget that is not
/// a positive finite number or that nothing validated meets, a what-if
/// factor that is not a positive finite number.
#[test]
fn infeasible_constraints_exit_2_with_one_line() {
    let tune = ["tune", "database", "--events", "50", "--iterations", "1"];
    let mut cases: Vec<Vec<&str>> = Vec::new();
    for (flag, value) in [
        ("--capacity", "0"),
        ("--capacity", "100000000"),
        ("--capacity", "17179869185"),
        ("--power", "0"),
        ("--power", "-1"),
        ("--power", "nan"),
        ("--power", "inf"),
        ("--power", "1"),
    ] {
        cases.push([&tune[..], &[flag, value]].concat());
    }
    for factor in ["nan", "0", "-2"] {
        cases.push(vec![
            "whatif", "database", "--events", "50", "--factor", factor,
        ]);
    }
    for args in &cases {
        let stderr = usage_error(args);
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
