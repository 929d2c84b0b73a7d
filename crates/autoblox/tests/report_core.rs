//! `explain` prints what the parent build printed.
//!
//! `tests/fixtures/explain/<run>.json` holds what `explain --json` printed
//! for the journal of each pinned run when the parent build — the one that
//! last re-recorded them — wrote it. From `crates/autoblox`:
//!
//! ```text
//! AUTOBLOX_THREADS=1 autoblox tune database --iterations 3 --events 300 \
//!     --journal tests/fixtures/tune_journal/journal.jsonl
//! autoblox explain --json tests/fixtures/tune_journal/journal.jsonl \
//!     > tests/fixtures/explain/telemetry-database.json
//! AUTOBLOX_THREADS=1 autoblox tune database --iterations 3 --events 300 \
//!     --flash qlc --family hybrid --journal family-smoke.jsonl
//! autoblox explain --json family-smoke.jsonl > tests/fixtures/explain/family-smoke.json
//! ```
//!
//! This build must print the same bytes for the kept `telemetry-database`
//! journal: the summary, phases, bottleneck shares and the model document
//! with its calibration and decision timeline. The CLI contract holds a
//! fresh run of each to its fixture's summary.
//!
//! The same file holds the CLI contract of the reader commands and of the
//! writers' inputs: malformed input of every kind is a one-line exit-2
//! error, retired commands and mistyped flags are usage errors.

use autoblox::explain::{render, Explain};
use autoblox::journal::{
    IterationLine, JournalLine, MetaLine, ModelLine, StatsLine, SummaryLine, TuneLine,
    JOURNAL_SCHEMA,
};
use autoblox::telemetry::PhaseRecord;
use autoblox::validator::ValidatorStats;
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const RUNS: [&str; 2] = ["telemetry-database", "family-smoke"];

fn fixture_path(path: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(path)
}

/// The `explain --json` document pinned for `run`.
fn fixture(run: &str) -> (String, Explain) {
    let json = std::fs::read_to_string(fixture_path(&format!("explain/{run}.json")))
        .expect("explain fixture");
    let doc = serde_json::from_str(&json).expect("explain fixture parses");
    (json, doc)
}

fn autoblox(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_autoblox"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn single_report_views_reproduce_the_parent() {
    let journal = fixture_path("tune_journal/journal.jsonl");
    let out = autoblox(&["explain", "--json", journal.to_str().unwrap()]);
    assert!(out.status.success(), "{:?}", out.stderr);
    let ours = String::from_utf8(out.stdout).expect("UTF-8");
    let (parent, _) = fixture("telemetry-database");
    if ours != parent {
        let line = ours.lines().zip(parent.lines()).position(|(a, b)| a != b);
        panic!("`explain --json` differs from the parent's at line {line:?}");
    }
    // Both runs are stalled searches whose two model-picked decisions were
    // ties.
    for run in RUNS {
        let text = render(&fixture(run).1);
        assert!(
            text.contains("  2 of 2 decisions were ties, picked by candidate order\n"),
            "{run}: {text}"
        );
        assert!(text.contains("stalled at the reference"), "{run}: {text}");
    }
}

// --- CLI contract of the reader commands ---------------------------------

/// A small complete journal: meta, a phase, an iteration with its model
/// line, the tune that closes it, the stats and the summary.
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
        JournalLine::Tune(TuneLine {
            workload: "Database".to_string(),
            iterations: 1,
            validations: 7,
            best_grade: 0.5,
        }),
        JournalLine::Stats(StatsLine {
            validator: ValidatorStats {
                simulator_runs: 7,
                ..Default::default()
            },
            ..Default::default()
        }),
        JournalLine::Summary(SummaryLine {
            events_written: 5,
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

/// Every command that loads a journal turns truncated, wrong-schema,
/// wrong-kind and wrong-typed input into exit 2 and one stderr line naming
/// the damage — never a panic. A journal is read only at the schema this
/// build writes; one cut between lines before its `stats` line is a
/// crash's output and reads as what it holds. The AutoDB store `tune --db`
/// reads is held to its own rules: a store cut inside its last record is a
/// crash's torn tail, read as the records before it; an undecodable
/// `memo:` record is a miss; a bad line anywhere else is exit 2 and one
/// line. A store the retired run registry also wrote `run:` records into
/// replays in full and keeps them.
#[test]
fn malformed_input_is_a_clean_cli_error_for_every_reader() {
    let dir = std::env::temp_dir().join(format!("abx-readers-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let str_value = |s: &str| Value::Str(s.to_string());
    let valid = journal();
    let tagged = |schema: &str| valid.replace(JOURNAL_SCHEMA, schema).into_bytes();
    let progress = r#"{"iteration":3,"percent":0.4375,"t":"progress","total":8}"#;
    let stats_at = valid
        .lines()
        .position(|l| l.contains(r#""t":"stats""#))
        .unwrap();
    assert_eq!(valid.matches(r#""cache_hits":0"#).count(), 1);
    let stats_named = format!("journal line {}: `stats` line", stats_at + 1);

    // (damage, input, what the one stderr line names)
    let hostile = [
        (
            "foreign schema",
            tagged("somethingelse.v9"),
            "`somethingelse.v9`",
        ),
        (
            "schema v1",
            tagged("autoblox.journal.v1"),
            "`autoblox.journal.v1` is not read by this build (expected \
             `autoblox.journal.v2`); re-record the journal",
        ),
        (
            "retired line kind",
            (valid.clone() + progress + "\n").into_bytes(),
            "unknown line kind `progress`",
        ),
        (
            "wrong field type",
            valid
                .replace(r#""iteration":1"#, r#""iteration":"one""#)
                .into_bytes(),
            "`iteration` line",
        ),
        (
            "wrong-typed stats member",
            valid
                .replace(r#""cache_hits":0"#, r#""cache_hits":"lots""#)
                .into_bytes(),
            stats_named.as_str(),
        ),
        (
            "no meta line",
            valid
                .lines()
                .skip(1)
                .map(|l| l.to_string() + "\n")
                .collect::<String>()
                .into_bytes(),
            "journal line 1: a journal starts with its `meta` line",
        ),
        // Not an empty run: no journal line at all.
        ("empty file", Vec::new(), "journal"),
    ];
    // Cut between lines before the `stats` line: a crash's journal.
    let crashed: String = valid
        .lines()
        .take(stats_at)
        .map(|l| l.to_string() + "\n")
        .collect();

    let input = dir.join("input");
    let input = input.to_str().unwrap();
    let out_file = dir.join("out");
    let out_file = out_file.to_str().unwrap();
    let readers: [Vec<&str>; 2] = [
        vec!["explain", input],
        vec!["trace", "export", "--chrome", input, out_file],
    ];

    for args in &readers {
        let run = |bytes: &[u8]| {
            std::fs::write(input, bytes).unwrap();
            let out = autoblox(args);
            let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
            assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
            (
                out.status.code(),
                String::from_utf8_lossy(&out.stdout).into_owned(),
                stderr,
            )
        };
        let rejected = |label: &str, bytes: &[u8]| {
            let (code, _, stderr) = run(bytes);
            let lines = stderr.lines().filter(|l| !l.trim().is_empty()).count();
            assert_eq!(code, Some(2), "{args:?} on {label}: {stderr}");
            assert_eq!(lines, 1, "{args:?} on {label}: {stderr}");
            stderr
        };
        // The intact input is accepted, so a rejection below is about the
        // damage and nothing else.
        let (code, stdout, stderr) = run(valid.as_bytes());
        assert_eq!(code, Some(0), "{args:?} on valid input: {stderr}");
        let (code, crash_stdout, stderr) = run(crashed.as_bytes());
        assert_eq!(code, Some(0), "{args:?} on a crashed run: {stderr}");
        if args[0] == "explain" {
            assert!(stdout.contains("  validations: 7 "), "{stdout}");
            assert!(crash_stdout.contains("  validations: 0 "), "{crash_stdout}");
            assert!(
                crash_stdout.contains("model observatory — Database"),
                "{crash_stdout}"
            );
        }
        for (i, cut) in truncations(valid.as_bytes()).iter().enumerate() {
            rejected(&format!("truncation {i}"), cut);
        }
        for (label, bytes, named) in &hostile {
            let stderr = rejected(label, bytes);
            assert!(stderr.contains(named), "{args:?} on {label}: {stderr}");
        }
    }
    // A missing file is the same one-line input error.
    std::fs::remove_file(input).unwrap();
    for args in &readers {
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
    let mut summary = serde_json::to_value(fixture("telemetry-database").1.summary).unwrap();
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
    let g = fixture_path("tune_journal/journal.jsonl");
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
        assert!(stderr.contains("explain  <journal.jsonl>"), "{stderr}");
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
            "--telemetry",
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
            vec!["tune", "database", "--telemetry", "x.json"],
            "error: unknown tune flag \"--telemetry\"",
        ),
        (
            vec!["whatif", "database", "--telemetry", "x.json"],
            "error: unknown whatif flag \"--telemetry\"",
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
