//! The report core answers what its four predecessors answered.
//!
//! `tests/fixtures/report_core_parent.json` holds what the commit before
//! the merge printed — `report diff`, `explain`, `explain diff`, `inspect`
//! and `inspect diff` over the pairs of the two goldens under
//! `scripts/golden/`. Every number that survives the merge must be equal:
//! all diff rows and verdicts, share fractions, the dominant resource,
//! calibration, the importance ranking, and the 0/3 exit codes.
//!
//! The same file holds the CLI contract of the reader commands and of the
//! writers' inputs: malformed input of every kind is a one-line exit-2
//! error, retired commands and mistyped flags are usage errors.

use autoblox::explain::explain;
use autoblox::journal::{
    IterationLine, JournalLine, MetaLine, SeriesLine, SummaryLine, JOURNAL_SCHEMA,
};
use autoblox::report::{Row, Summary, Thresholds};
use autoblox::report_diff::diff_reports;
use autoblox::telemetry::{PhaseRecord, RunReport};
use serde_json::Value;
use ssdsim::DeviceSample;
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

fn fixture() -> Value {
    serde_json::from_str(include_str!("fixtures/report_core_parent.json")).expect("fixture parses")
}

fn autoblox(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_autoblox"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn num(v: &Value, key: &str) -> f64 {
    v[key]
        .as_f64()
        .unwrap_or_else(|| panic!("`{key}` is not a number in {v:?}"))
}

/// Structural equality with numbers compared as `f64` (the JSON shim reads
/// `1.0` and `1` as different variants of the same value).
fn assert_same(ours: &Value, parent: &Value, path: &str) {
    match (ours, parent) {
        (Value::Object(a), Value::Object(b)) => {
            assert_eq!(
                a.keys().collect::<Vec<_>>(),
                b.keys().collect::<Vec<_>>(),
                "{path}: members differ"
            );
            for (k, v) in a {
                assert_same(v, &b[k], &format!("{path}.{k}"));
            }
        }
        (Value::Array(a), Value::Array(b)) => {
            assert_eq!(a.len(), b.len(), "{path}: lengths differ");
            for (i, (x, y)) in a.iter().zip(b).enumerate() {
                assert_same(x, y, &format!("{path}[{i}]"));
            }
        }
        _ => match (ours.as_f64(), parent.as_f64()) {
            (Some(x), Some(y)) => assert_eq!(x, y, "{path}"),
            _ => assert_eq!(ours, parent, "{path}"),
        },
    }
}

/// A row of ours against the parent's `report diff` row.
fn assert_row(ours: &Row, parent: &Value, path: &str) {
    assert_eq!(ours.baseline, num(parent, "baseline"), "{path} baseline");
    assert_eq!(ours.candidate, num(parent, "candidate"), "{path} candidate");
    assert_eq!(ours.delta, num(parent, "delta"), "{path} delta");
    assert_eq!(ours.relative, num(parent, "relative"), "{path} relative");
    assert_eq!(ours.threshold, num(parent, "threshold"), "{path} threshold");
    assert_eq!(
        Some(ours.checked),
        parent["checked"].as_bool(),
        "{path} checked"
    );
    assert_eq!(
        Some(ours.regressed),
        parent["regressed"].as_bool(),
        "{path} verdict"
    );
}

fn row<'a>(rows: &'a [Row], metric: &str) -> &'a Row {
    rows.iter()
        .find(|r| r.metric == metric)
        .unwrap_or_else(|| panic!("no `{metric}` row"))
}

#[test]
fn single_report_views_reproduce_the_parent() {
    let fx = fixture();
    for name in GOLDENS {
        let doc = explain(&golden(name));
        let s = &doc.summary;
        // `explain` printed this fingerprint; it is now read off the summary.
        let fingerprint = serde_json::json!({
            "workloads": s.workloads,
            "best_grade": s.best_grade.unwrap_or(0.0),
            "validations": s.simulator_runs,
            "total_latency_ns": s.bottleneck.total_latency_ns,
            "dominant": doc.dominant,
            "shares": doc.shares,
            "latency_percentiles": s.latency_percentiles,
            "device_samples": s.device_samples,
            "device_samples_dropped": s.device_samples_dropped,
        });
        let parent = &fx["reports"][name];
        assert_same(&fingerprint, &parent["explain"], &format!("{name}.explain"));
        // `inspect --json` is the nested model document (the fixture drops
        // its two schema lines): calibration, importance ranking, decision
        // timeline, per run and pooled.
        assert_same(
            &serde_json::to_value(&doc.model).unwrap(),
            &parent["inspect"],
            &format!("{name}.inspect"),
        );
        // The summary's model aggregates are that document's.
        let cal = &parent["inspect"]["calibration"];
        assert_eq!(s.calibration.coverage_1s, num(cal, "coverage_1s"));
        assert_eq!(s.calibration.rmse, num(cal, "rmse"));
        assert_eq!(s.calibration.mean_nlpd, num(cal, "mean_nlpd"));
    }
}

#[test]
fn pairwise_comparisons_reproduce_the_parent() {
    let fx = fixture();
    let Value::Object(pairs) = &fx["pairs"] else {
        panic!("pairs object expected")
    };
    assert_eq!(pairs.len(), 2, "every ordered pair of the two goldens");
    let thresholds = Thresholds {
        ignore_time: true,
        ..Thresholds::default()
    };
    for (pair, parent) in pairs {
        let (a, b) = pair.split_once('|').expect("pair key");
        let (base, cand) = (golden(a), golden(b));
        let diff = diff_reports(&base, &cand, &thresholds, &[]);

        // `report diff`: every parent row, in the parent's order, then the
        // verdict and the exit code.
        let Value::Array(parent_rows) = &parent["diff"]["metrics"] else {
            panic!("metrics array expected")
        };
        let parent_names: Vec<&str> = parent_rows
            .iter()
            .map(|r| r["metric"].as_str().unwrap())
            .collect();
        let ours: Vec<&Row> = diff
            .metrics
            .iter()
            .filter(|r| parent_names.contains(&r.metric.as_str()))
            .collect();
        assert_eq!(
            ours.iter().map(|r| r.metric.as_str()).collect::<Vec<_>>(),
            parent_names,
            "{pair}: row names and order"
        );
        for (r, p) in ours.iter().zip(parent_rows) {
            assert_row(r, p, &format!("{pair}/{}", r.metric));
        }
        assert_same(
            &serde_json::to_value(&diff.regressions).unwrap(),
            &parent["diff"]["regressions"],
            &format!("{pair} regressions"),
        );
        assert_eq!(Some(diff.pass), parent["diff"]["pass"].as_bool(), "{pair}");
        let out = autoblox(&[
            "report",
            "diff",
            golden_path(a).to_str().unwrap(),
            golden_path(b).to_str().unwrap(),
            "--ignore-time",
        ]);
        assert_eq!(
            out.status.code().map(f64::from),
            parent["diff_exit"].as_f64(),
            "{pair} exit code"
        );

        // `explain diff`: the share movements are the share rows, the grade
        // delta the grade row, the moved-bottleneck verdict a note.
        let (sb, sc) = (Summary::of(&base), Summary::of(&cand));
        let ed = &parent["explain_diff"];
        let Value::Array(deltas) = &ed["deltas"] else {
            panic!("deltas array expected")
        };
        for d in deltas {
            let resource = d["resource"].as_str().unwrap();
            if resource == "other" {
                continue;
            }
            let name = format!("bottleneck_{}_frac", resource.replace('-', "_"));
            let r = row(&diff.metrics, &name);
            assert_eq!(r.baseline, num(d, "baseline_frac"), "{pair}/{name}");
            assert_eq!(r.candidate, num(d, "candidate_frac"), "{pair}/{name}");
            assert_eq!(r.delta, num(d, "delta"), "{pair}/{name}");
        }
        if let (Some(gb), Some(gc)) = (sb.best_grade, sc.best_grade) {
            assert_eq!(gc - gb, num(ed, "grade_delta"), "{pair} grade delta");
            assert_eq!(row(&diff.metrics, "best_grade").delta, gc - gb);
        }
        let moved = format!(
            "bottleneck moved: {} -> {}",
            ed["moved_from"].as_str().unwrap(),
            ed["moved_to"].as_str().unwrap()
        );
        assert_eq!(
            Some(diff.notes.contains(&moved)),
            ed["bottleneck_moved"].as_bool(),
            "{pair}: {:?}",
            diff.notes
        );

        // `inspect diff`: calibration and explore-share movement are rows
        // (where both runs calibrated at all), the importance lead a note.
        let md = &parent["inspect_diff"];
        if sb.calibration.points > 0 && sc.calibration.points > 0 {
            for (name, key) in [
                ("calibration_coverage_1s", "coverage_1s_delta"),
                ("calibration_coverage_2s", "coverage_2s_delta"),
                ("calibration_rmse", "rmse_delta"),
                ("calibration_nlpd", "nlpd_delta"),
            ] {
                assert_eq!(
                    row(&diff.metrics, name).delta,
                    num(md, key),
                    "{pair}/{name}"
                );
            }
        }
        assert_eq!(
            row(&diff.metrics, "explore_share").delta,
            num(md, "explore_share_delta"),
            "{pair}/explore_share"
        );
        let moved = format!(
            "importance lead moved: {} -> {}",
            md["moved_from"].as_str().unwrap(),
            md["moved_to"].as_str().unwrap()
        );
        assert_eq!(
            Some(diff.notes.contains(&moved)),
            md["top_param_moved"].as_bool(),
            "{pair}: {:?}",
            diff.notes
        );
    }
}

// --- CLI contract of the reader commands ---------------------------------

/// What a reader command is handed.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Kind {
    Report,
    Journal,
}

/// A small complete journal: meta, a phase, an iteration, a device series
/// and the summary.
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
        JournalLine::Series(SeriesLine {
            trace: "Database".to_string(),
            replay: "timed".to_string(),
            interval_ns: 100,
            dropped: 0,
            samples: vec![DeviceSample {
                t_ns: 100,
                channel_busy: 0.5,
                queue_depth: 3,
                ..Default::default()
            }],
        }),
        JournalLine::Summary(SummaryLine {
            events_written: 3,
            ..Default::default()
        }),
    ];
    lines.iter().map(|l| l.to_line() + "\n").collect()
}

/// 16 truncation points spread over `bytes`, none on a line boundary (a
/// line-structured file cut between records is a shorter valid file).
fn truncations(bytes: &[u8]) -> Vec<Vec<u8>> {
    (1..=16)
        .map(|i| {
            let mut at = bytes.len() * i / 17;
            while at == 0 || bytes[at - 1] == b'\n' || bytes[at..].iter().all(|b| *b == b'\n') {
                at += 1;
            }
            bytes[..at].to_vec()
        })
        .collect()
}

fn set(doc: &mut Value, path: &[&str], value: Value) {
    let (last, parents) = path.split_last().unwrap();
    let mut at = doc;
    for key in parents {
        let Value::Object(map) = at else {
            panic!("object expected at {key}")
        };
        at = map.get_mut(*key).expect("member exists");
    }
    let Value::Object(map) = at else {
        panic!("object expected")
    };
    map.insert(last.to_string(), value);
}

/// Every command that loads a report or journal turns truncated,
/// wrong-schema and wrong-typed input into exit 2 and one stderr line —
/// never a panic. The AutoDB store `tune --db` reads is held to its own
/// rules: a store cut inside its last record is a crash's torn tail, read
/// as the records before it; an undecodable `memo:` record is a miss; a
/// bad line anywhere else is exit 2 and one line. A store the retired run
/// registry also wrote `run:` records into replays in full and keeps them.
#[test]
fn malformed_input_is_a_clean_cli_error_for_every_reader() {
    let dir = std::env::temp_dir().join(format!("abx-readers-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let good_report = golden_path("telemetry-database");
    let good_report = good_report.to_str().unwrap();
    let report_json = std::fs::read_to_string(good_report).unwrap();
    let mutated_report = |path: &[&str], value: Value| {
        let mut doc: Value = serde_json::from_str(&report_json).unwrap();
        set(&mut doc, path, value);
        serde_json::to_string_pretty(&doc).unwrap().into_bytes()
    };
    let str_value = |s: &str| Value::Str(s.to_string());

    // (kind, [valid, wrong schema, wrong field type])
    let inputs = [
        (
            Kind::Report,
            [
                report_json.clone().into_bytes(),
                mutated_report(&["schema"], str_value("autoblox.telemetry.v0")),
                mutated_report(&["validator", "cache_hits"], str_value("lots")),
            ],
        ),
        (
            Kind::Journal,
            [
                journal().into_bytes(),
                journal()
                    .replace("autoblox.journal.v1", "somethingelse.v9")
                    .into_bytes(),
                journal()
                    .replace(r#""iteration":1"#, r#""iteration":"one""#)
                    .into_bytes(),
            ],
        ),
    ];

    let input = dir.join("input");
    let input = input.to_str().unwrap();
    let out_file = dir.join("out");
    let out_file = out_file.to_str().unwrap();
    // (command line, what it reads, tolerates torn lines / mistyped fields)
    let readers: [(Vec<&str>, Kind, bool, bool); 4] = [
        (vec!["explain", input], Kind::Report, false, false),
        (
            vec!["report", "diff", good_report, input, "--ignore-time"],
            Kind::Report,
            false,
            false,
        ),
        (vec!["telemetry-check", input], Kind::Report, false, false),
        (
            vec!["trace", "export", "--chrome", input, out_file],
            Kind::Journal,
            false,
            false,
        ),
    ];

    for (args, kind, tolerates_torn, tolerates_types) in &readers {
        let (_, [valid, wrong_schema, wrong_type]) =
            inputs.iter().find(|(k, _)| k == kind).expect("inputs");
        let run = |bytes: &[u8]| {
            std::fs::write(input, bytes).unwrap();
            let out = autoblox(args);
            let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
            assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
            (out.status.code(), stderr)
        };
        let rejected = |label: &str, bytes: &[u8], tolerated: bool| {
            let (code, stderr) = run(bytes);
            let lines = stderr.lines().filter(|l| !l.trim().is_empty()).count();
            if tolerated && code == Some(0) {
                assert!(lines <= 1, "{args:?} on {label}: {stderr}");
            } else {
                assert_eq!(code, Some(2), "{args:?} on {label}: {stderr}");
                assert_eq!(lines, 1, "{args:?} on {label}: {stderr}");
            }
        };
        // The intact input is accepted, so a rejection below is about the
        // damage and nothing else.
        let (code, stderr) = run(valid);
        assert_eq!(code, Some(0), "{args:?} on valid input: {stderr}");
        for (i, cut) in truncations(valid).iter().enumerate() {
            rejected(&format!("truncation {i}"), cut, *tolerates_torn);
        }
        rejected("wrong schema", wrong_schema, false);
        rejected("wrong field type", wrong_type, *tolerates_types);
    }
    // A missing file is the same one-line input error.
    std::fs::remove_file(input).unwrap();
    for (args, ..) in &readers {
        let out = autoblox(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    }

    // The store: two `run:` records as the run registry wrote them, then
    // what one tune paid for.
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
    let summary = serde_json::to_value(Summary::of(&golden("telemetry-database"))).unwrap();
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
    assert!(out.stdout.is_empty(), "{args:?} printed a verdict");
    stderr
}

#[test]
fn report_diff_ignore_without_a_value_is_a_usage_error() {
    let g = golden_path("telemetry-database");
    let g = g.to_str().unwrap();
    let stderr = usage_error(&["report", "diff", g, g, "--ignore"]);
    assert!(
        stderr.starts_with("error: --ignore needs a value\n"),
        "{stderr}"
    );
}

#[test]
fn report_diff_rejects_an_unknown_flag() {
    let g = golden_path("telemetry-database");
    let g = g.to_str().unwrap();
    // A mistyped threshold must not run the gate at the default.
    let stderr = usage_error(&["report", "diff", g, g, "--max-grade-dorp", "0.5"]);
    assert!(
        stderr.starts_with("error: unknown report diff flag \"--max-grade-dorp\"\n"),
        "{stderr}"
    );
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
    ] {
        let stderr = usage_error(&args);
        assert!(stderr.starts_with("usage: autoblox <command>"), "{stderr}");
        assert!(stderr.contains("explain  <telemetry.json>"), "{stderr}");
        for retired in ["inspect  ", "watch", "runs", "trend", "--record"] {
            assert!(!stderr.contains(retired), "{retired}: {stderr}");
        }
    }
    // A retired subcommand or flag of a live command is a usage error.
    for (args, message) in [
        (
            vec!["report", "trend"],
            "error: unknown report subcommand \"trend\"",
        ),
        (
            vec!["tune", "database", "--record"],
            "error: unknown tune flag \"--record\"",
        ),
        (
            vec!["whatif", "database", "--record"],
            "error: unknown whatif flag \"--record\"",
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
