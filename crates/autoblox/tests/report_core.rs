//! The report core answers what its four predecessors answered.
//!
//! `tests/fixtures/report_core_parent.json` holds what the commit before
//! the merge printed — `report diff`, `explain`, `explain diff`, `inspect`
//! and `inspect diff` over the pairs of the two goldens under
//! `scripts/golden/`, and `report trend` over a synthetic ten-run registry
//! (two categories of five). Every number that survives the merge must be
//! equal: all diff rows and verdicts, share fractions, the dominant
//! resource, calibration, the importance ranking, trend medians and drifts,
//! and the 0/3 exit codes.
//!
//! The same file holds the CLI contract of the reader commands: malformed
//! input of every kind is a one-line exit-2 error, retired commands and
//! mistyped flags are usage errors.

use autoblox::explain::explain;
use autoblox::journal::{
    IterationLine, JournalLine, MetaLine, SeriesLine, SummaryLine, JOURNAL_SCHEMA,
};
use autoblox::obs;
use autoblox::report::{Row, Summary, Thresholds};
use autoblox::report_diff::diff_reports;
use autoblox::telemetry::{PhaseRecord, RunReport};
use serde_json::Value;
use ssdsim::{BottleneckReport, DeviceSample};
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

/// A row of ours against the parent's row of either engine (`report diff`
/// called the columns baseline/candidate/regressed, `report trend`
/// median/latest/drifted).
fn assert_row(ours: &Row, parent: &Value, path: &str) {
    let pick = |a: &'static str, b: &'static str| if parent.get(a).is_some() { a } else { b };
    assert_eq!(
        ours.baseline,
        num(parent, pick("baseline", "median")),
        "{path} baseline"
    );
    assert_eq!(
        ours.candidate,
        num(parent, pick("candidate", "latest")),
        "{path} candidate"
    );
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
        parent[pick("regressed", "drifted")].as_bool(),
        "{path} verdict"
    );
    if let Some(ewma) = parent.get("ewma") {
        assert_eq!(Some(ours.ewma), ewma.as_f64(), "{path} ewma");
    }
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

/// The parent's trend row names in the metric table's spelling.
fn table_name(parent: &str) -> String {
    match parent {
        "simulator_runs" => "validations".to_string(),
        "calibration.coverage_1s" => "calibration_coverage_1s".to_string(),
        other => match other.strip_prefix("bottleneck.") {
            Some(share) => format!("bottleneck_{}_frac", share.replace('-', "_")),
            None => other.to_string(),
        },
    }
}

#[test]
fn trend_reproduces_the_parent() {
    let fx = fixture();
    let path = std::env::temp_dir().join(format!("abx-report-core-{}.db", std::process::id()));
    std::fs::remove_file(&path).ok();
    let db = autodb::Store::open(&path).expect("store opens");
    let Value::Array(runs) = &fx["trend"]["runs"] else {
        panic!("runs array expected")
    };
    assert_eq!(runs.len(), 10);
    for run in runs {
        let mut s = Summary::of(&Default::default());
        s.command = run["command"].as_str().unwrap().to_string();
        s.category = run["category"].as_str().unwrap().to_string();
        s.device_family = run["device_family"].as_str().unwrap().to_string();
        s.seed = run["seed"].as_u64().unwrap();
        s.best_grade = run["best_grade"].as_f64();
        s.iterations = run["iterations"].as_u64().unwrap();
        s.simulator_runs = run["simulator_runs"].as_u64().unwrap();
        s.bottleneck = serde_json::from_value::<BottleneckReport>(run["bottleneck"].clone())
            .expect("bottleneck parses");
        s.calibration.coverage_1s = num(run, "calibration_coverage_1s");
        s.calibration.points = run["calibration_points"].as_u64().unwrap();
        let key = obs::record_run(&db, &s).expect("records");
        assert_eq!(Some(key.as_str()), run["key"].as_str());
    }

    for (label, category) in [("all", None), ("KVStore", Some("KVStore"))] {
        let parent = &fx["trend"][label];
        let report = obs::trend(&db, &Thresholds::default(), category).expect("trend computes");
        let Value::Array(parent_cats) = &parent["report"]["categories"] else {
            panic!("categories array expected")
        };
        assert_eq!(report.categories.len(), parent_cats.len(), "{label}");
        let mut drifts = Vec::new();
        for (cat, p) in report.categories.iter().zip(parent_cats) {
            assert_eq!(Some(cat.category.as_str()), p["category"].as_str());
            assert_eq!(Some(cat.runs), p["runs"].as_u64());
            assert_eq!(Some(cat.window_used), p["window_used"].as_u64());
            assert_eq!(Some(cat.latest_key.as_str()), p["latest_key"].as_str());
            assert_eq!(Some(cat.pass), p["pass"].as_bool());
            let Value::Array(parent_rows) = &p["metrics"] else {
                panic!("metrics array expected")
            };
            for pr in parent_rows {
                let name = table_name(pr["metric"].as_str().unwrap());
                let path = format!("{label}/{}/{name}", cat.category);
                assert_row(row(&cat.metrics, &name), pr, &path);
                if pr["drifted"].as_bool() == Some(true) {
                    drifts.push(format!("{}/{name}", cat.category));
                }
            }
        }
        // Same drifts (the table orders the calibration row after the
        // shares, so compare as sets).
        let mut ours = report.drifts.clone();
        ours.sort();
        drifts.sort();
        assert_eq!(ours, drifts, "{label}");
        assert_eq!(Some(report.pass), parent["report"]["pass"].as_bool());

        let mut args = vec!["report", "trend", "--json", "--db", path.to_str().unwrap()];
        if let Some(c) = category {
            args.extend(["--category", c]);
        }
        assert_eq!(
            autoblox(&args).status.code().map(f64::from),
            parent["exit"].as_f64(),
            "{label} exit code"
        );
    }
    std::fs::remove_file(&path).ok();
}

// --- CLI contract of the reader commands ---------------------------------

/// What a reader command is handed.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Kind {
    Report,
    Journal,
    Registry,
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

fn registry_bytes(dir: &Path, mutate: impl Fn(&mut Value)) -> Vec<u8> {
    let path = dir.join("build.db");
    std::fs::remove_file(&path).ok();
    let db = autodb::Store::open(&path).expect("store opens");
    let mut value = serde_json::to_value(Summary::of(&golden("telemetry-database"))).unwrap();
    mutate(&mut value);
    db.put("run:Database:000001", &value).unwrap();
    db.put("run:Database:000002", &value).unwrap();
    drop(db);
    std::fs::read(&path).expect("store readable")
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

/// Every command that loads a report, journal or registry turns truncated,
/// wrong-schema and wrong-typed input into exit 2 and one stderr line —
/// never a panic. The exceptions are by design: a tail may observe torn
/// and mistyped journal lines, so `watch` counts and skips them (`trace
/// export` rejects them with the line number); and a registry cut inside
/// its last record is a crash's torn tail, read as the records before it.
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
        (
            Kind::Registry,
            [
                registry_bytes(&dir, |_| {}),
                registry_bytes(&dir, |v| set(v, &["schema"], str_value("autoblox.runs.v9"))),
                registry_bytes(&dir, |v| set(v, &["simulator_runs"], str_value("many"))),
            ],
        ),
    ];

    let input = dir.join("input");
    let input = input.to_str().unwrap();
    let out_file = dir.join("out");
    let out_file = out_file.to_str().unwrap();
    // (command line, what it reads, tolerates torn lines / mistyped fields)
    let readers: [(Vec<&str>, Kind, bool, bool); 7] = [
        (vec!["explain", input], Kind::Report, false, false),
        (
            vec!["report", "diff", good_report, input, "--ignore-time"],
            Kind::Report,
            false,
            false,
        ),
        (vec!["telemetry-check", input], Kind::Report, false, false),
        (
            vec!["report", "trend", "--json", "--db", input],
            Kind::Registry,
            true,
            false,
        ),
        (
            vec!["runs", "show", "run:Database:000001", "--db", input],
            Kind::Registry,
            true,
            false,
        ),
        (
            vec!["watch", input, "--replay", "--json"],
            Kind::Journal,
            true,
            true,
        ),
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
fn report_trend_rejects_unknown_flags_and_missing_values() {
    let stderr = usage_error(&["report", "trend", "--max-grade-dorp", "0.5"]);
    assert!(
        stderr.starts_with("error: unknown report trend flag"),
        "{stderr}"
    );
    // A diff-only threshold is unknown to the trend gate, not ignored.
    let stderr = usage_error(&["report", "trend", "--max-hit-rate-drop", "0.5"]);
    assert!(
        stderr.starts_with("error: unknown report trend flag"),
        "{stderr}"
    );
    let stderr = usage_error(&["report", "trend", "--window"]);
    assert!(
        stderr.starts_with("error: --window needs a value\n"),
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
    ] {
        let stderr = usage_error(&args);
        assert!(stderr.starts_with("usage: autoblox <command>"), "{stderr}");
        assert!(stderr.contains("explain  <telemetry.json>"), "{stderr}");
        assert!(!stderr.contains("inspect  "), "{stderr}");
    }
}
