//! Resume = replay: a validator with an attached AutoDB store keeps every
//! charged measurement there, so the same tune run again against the same
//! store reproduces its trajectory bit for bit and simulates only what no
//! earlier run paid for — after a finished run, an interrupted one, or a
//! crash that tore the store's last line. Anything that changes what a
//! measurement means (device family, trace length or content, simulator
//! model) misses the memo instead of being served stale numbers. That a
//! replay is byte-identical at every width is a row of the CLI contract
//! (`cli_contract.rs`).

use autoblox::constraints::Constraints;
use autoblox::metrics::Measurement;
use autoblox::tuner::{Tuner, TunerOptions, TuningTarget};
use autoblox::validator::{Validator, ValidatorOptions};
use autoblox::{AutoBlox, AutoBloxOptions, Summary};
use autodb::Store;
use iotrace::gen::WorkloadKind;
use iotrace::Trace;
use proptest::prelude::*;
use serde_json::Value;
use ssdsim::config::presets;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::Arc;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("abx-memo-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `autoblox` with `AUTOBLOX_THREADS=threads`.
fn autoblox(threads: usize, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_autoblox"))
        .env("AUTOBLOX_THREADS", threads.to_string())
        .args(args)
        .output()
        .expect("binary runs")
}

/// `tune database --events 300` against the store `db`: stdout, stderr and
/// the telemetry report's validator section.
fn tune_cli(
    db: &Path,
    threads: usize,
    iterations: &str,
    extra: &[&str],
) -> (Vec<u8>, String, Value) {
    let tel = db.with_extension("telemetry.json");
    let mut args = vec![
        "tune",
        "database",
        "--iterations",
        iterations,
        "--events",
        "300",
        "--db",
        db.to_str().unwrap(),
        "--telemetry",
        tel.to_str().unwrap(),
    ];
    args.extend_from_slice(extra);
    let out = autoblox(threads, &args);
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(out.status.success(), "{args:?}: {stderr}");
    let report: Value = serde_json::from_str(&std::fs::read_to_string(&tel).unwrap()).unwrap();
    (out.stdout, stderr, report["validator"].clone())
}

fn count(validator: &Value, key: &str) -> u64 {
    validator[key].as_u64().expect("counter")
}

/// A 2-iteration run followed by a 4-iteration run on one store lands on
/// the fresh 4-iteration configuration and simulates only the difference.
#[test]
fn iterations_2_then_4_simulates_only_the_tail() {
    let dir = scratch("tail");
    for threads in [1, 4] {
        let (full, _, full_runs) =
            tune_cli(&dir.join(format!("full-{threads}.db")), threads, "4", &[]);
        let db = dir.join(format!("resumed-{threads}.db"));
        let (_, _, head) = tune_cli(&db, threads, "2", &[]);
        let (resumed, stderr, tail) = tune_cli(&db, threads, "4", &[]);
        assert_eq!(full, resumed, "threads={threads}");
        let (full_runs, head_runs) = (
            count(&full_runs, "simulator_runs"),
            count(&head, "simulator_runs"),
        );
        assert!(head_runs > 0 && head_runs < full_runs);
        assert_eq!(count(&tail, "simulator_runs"), full_runs - head_runs);
        assert!(
            stderr.contains(&format!(
                "{full_runs} validations, {head_runs} from the store"
            )),
            "{stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

fn validator(events: usize) -> Validator {
    Validator::new(ValidatorOptions {
        trace_events: events,
        ..Default::default()
    })
}

fn opts(non_target: Vec<WorkloadKind>) -> TunerOptions {
    TunerOptions {
        max_iterations: 3,
        sgd_iterations: 3,
        convergence_window: 4,
        non_target,
        ..Default::default()
    }
}

/// Tunes `target` on a fresh validator whose memo is `db`: the best
/// configuration's grade history, simulator runs and memo hits.
fn tune_on(
    db: &Arc<Store>,
    events: usize,
    target: TuningTarget<'_>,
    opts: TunerOptions,
) -> (Vec<f64>, u64, u64) {
    let v = validator(events);
    v.attach_store(Arc::clone(db));
    let out = Tuner::new(Constraints::paper_default(), &v, opts).tune(
        target,
        &presets::intel_750(),
        &[],
        None,
    );
    (out.grade_history, v.simulator_runs(), v.memo_hits())
}

/// Changed `--events`, trace content or `SIM_MODEL` gets zero memo hits
/// (the device family is covered by `tests/family.rs`).
#[test]
fn changed_inputs_miss_the_memo() {
    let dir = scratch("inputs");
    let path = dir.join("store.db");
    let db = Arc::new(Store::open(&path).unwrap());
    let database = TuningTarget::Category(WorkloadKind::Database);
    let (grades, runs, _) = tune_on(&db, 120, database, opts(vec![]));
    assert!(runs > 0);
    assert_eq!(tune_on(&db, 120, database, opts(vec![])), (grades, 0, runs));
    assert_eq!(tune_on(&db, 121, database, opts(vec![])).2, 0, "--events");

    let tenant = |seed| {
        let events = WorkloadKind::Fiu
            .spec()
            .generate(120, seed)
            .events()
            .to_vec();
        Trace::from_events("tenant", events)
    };
    let (a, b) = (tenant(1), tenant(2));
    let (_, runs_a, _) = tune_on(&db, 120, TuningTarget::Trace(&a), opts(vec![]));
    assert_eq!(
        tune_on(&db, 120, TuningTarget::Trace(&b), opts(vec![])).2,
        0,
        "content"
    );
    assert_eq!(
        tune_on(&db, 120, TuningTarget::Trace(&a), opts(vec![])).1,
        0
    );
    assert!(runs_a > 0);

    // The same store as a simulator of another model version wrote it.
    drop(db);
    let model = |m: u32| format!("\"memo:{m}:");
    let log = std::fs::read_to_string(&path).unwrap();
    assert!(log.contains(&model(ssdsim::SIM_MODEL)));
    let older = log.replace(&model(ssdsim::SIM_MODEL), &model(ssdsim::SIM_MODEL + 1));
    std::fs::write(&path, older).unwrap();
    let db = Arc::new(Store::open(&path).unwrap());
    assert_eq!(tune_on(&db, 120, database, opts(vec![])).2, 0, "SIM_MODEL");
    std::fs::remove_dir_all(&dir).ok();
}

/// A store holding `run:` records (as the retired run registry wrote
/// them), `category:` and `memo:` records, cut at every
/// byte offset, reopens to exactly the records that were whole at the cut;
/// re-running the tune on a cut store simulates exactly what was lost.
#[test]
fn truncated_store_reopens_and_replays_what_was_lost() {
    let dir = scratch("torn");
    let path = dir.join("store.db");
    let tuner_opts = opts(vec![WorkloadKind::WebSearch]);
    let v = validator(120);
    let fw = AutoBlox::new(
        Constraints::paper_default(),
        &v,
        Store::open(&path).unwrap(),
        AutoBloxOptions {
            tuner: tuner_opts.clone(),
            ..Default::default()
        },
    );
    let mut summary = Summary::of(&autoblox::telemetry::TelemetrySink::new().report(None));
    summary.category = "Database".to_string();
    fw.db().put_record("run:Database:000001", &summary).unwrap();
    let grades = fw
        .tune_category(WorkloadKind::Database, &presets::intel_750(), None)
        .grade_history;
    fw.db().put_record("run:Database:000002", &summary).unwrap();
    drop(fw);
    let paid = v.simulator_runs();
    let full = std::fs::read(&path).unwrap();

    // Each record's key, and the cut from which on it is whole.
    let mut records: Vec<(usize, String)> = Vec::new();
    let mut end = 0;
    for line in full.split_inclusive(|&b| b == b'\n') {
        end += line.len();
        let rec: Value = serde_json::from_str(std::str::from_utf8(line).unwrap()).unwrap();
        records.push((end - 1, rec["key"].as_str().unwrap().to_string()));
    }
    let memo = records
        .iter()
        .filter(|(_, k)| k.starts_with("memo:"))
        .count() as u64;
    assert_eq!(memo, paid, "one record per charged measurement");
    for family in ["run:", "category:", "memo:"] {
        assert!(
            records.iter().any(|(_, k)| k.starts_with(family)),
            "{family}"
        );
    }
    let whole_at = |cut: usize| -> Vec<String> {
        let mut keys: Vec<String> = records
            .iter()
            .filter(|(at, _)| *at <= cut)
            .map(|(_, k)| k.clone())
            .collect();
        keys.sort();
        keys
    };

    let torn = dir.join("torn.db");
    for cut in 0..=full.len() {
        std::fs::write(&torn, &full[..cut]).unwrap();
        let db = Store::open(&torn).unwrap_or_else(|e| panic!("cut {cut}: {e}"));
        assert_eq!(db.keys(), whole_at(cut), "cut {cut}");
    }

    // Re-run on a sample of cuts: inside the first memo record, halfway
    // through them, just before the last one's newline, and in the last
    // `run:` record.
    let first_memo = records
        .iter()
        .position(|(_, k)| k.starts_with("memo:"))
        .unwrap();
    let line_start = |i: usize| if i == 0 { 0 } else { records[i - 1].0 + 1 };
    let last_memo = first_memo + memo as usize - 1;
    for cut in [
        line_start(first_memo) + 10,
        line_start(first_memo + memo as usize / 2) + 10,
        records[last_memo].0,
        full.len() - 5,
    ] {
        std::fs::write(&torn, &full[..cut]).unwrap();
        let kept = whole_at(cut)
            .iter()
            .filter(|k| k.starts_with("memo:"))
            .count() as u64;
        let db = Arc::new(Store::open(&torn).unwrap());
        let database = TuningTarget::Category(WorkloadKind::Database);
        assert_eq!(
            tune_on(&db, 120, database, tuner_opts.clone()),
            (grades.clone(), paid - kept, kept),
            "cut {cut}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A byte flipped in the middle of a store is corruption, not a torn tail:
/// exit 2 with one stderr line and no panic, from either writer. A torn
/// tail alone is repaired and the run goes on.
#[test]
fn corrupt_store_is_a_clean_cli_error() {
    let dir = scratch("corrupt");
    let db = dir.join("store.db");
    let tune = [
        "tune",
        "database",
        "--iterations",
        "1",
        "--events",
        "60",
        "--db",
    ];
    let with_db = |args: &[&str]| {
        let mut args = args.to_vec();
        args.push(db.to_str().unwrap());
        autoblox(1, &args)
    };
    assert!(with_db(&tune).status.success());
    let good = std::fs::read(&db).unwrap();

    let mut flipped = good.clone();
    let second = flipped.iter().position(|&b| b == b'\n').unwrap() + 1;
    flipped[second] ^= 0x01;
    let whatif: &[&str] = &["whatif", "database", "--events", "60", "--db"];
    for args in [&tune[..], whatif] {
        std::fs::write(&db, &flipped).unwrap();
        let out = with_db(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.contains("corrupt at line 2"), "{args:?}: {stderr}");
        assert_eq!(
            std::fs::read(&db).unwrap(),
            flipped,
            "a corrupt store is left alone"
        );
    }

    std::fs::write(&db, &good[..good.len() - 3]).unwrap();
    let out = with_db(&tune);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("from the store"), "{stderr}");
    assert!(Store::open(&db).is_ok());
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Memo records carry measurements through the store's JSON log bit
    /// for bit, whatever the magnitudes.
    #[test]
    fn memo_records_round_trip_measurements_bit_exactly(
        bits in prop::collection::vec(any::<u64>(), 4),
    ) {
        let finite = |b: u64| Some(f64::from_bits(b)).filter(|f| f.is_finite()).unwrap_or(0.5);
        let m = Measurement {
            latency_ns: finite(bits[0]),
            throughput_bps: finite(bits[1]),
            power_w: finite(bits[2]),
            energy_mj: finite(bits[3]),
        };
        let dir = scratch("roundtrip");
        let path = dir.join("store.db");
        Store::open(&path).unwrap().put_record("memo:k", &m).unwrap();
        let back: Measurement = Store::open(&path).unwrap().get_record("memo:k").unwrap().unwrap();
        let words = |m: &Measurement| {
            [m.latency_ns, m.throughput_bps, m.power_w, m.energy_mj].map(f64::to_bits)
        };
        prop_assert_eq!(words(&back), words(&m));
        std::fs::remove_dir_all(&dir).ok();
    }
}
