//! Parallel-engine invariants: fan-out must change wall-clock time only —
//! never results, and never the number of simulator runs.

use autoblox::constraints::Constraints;
use autoblox::parallel;
use autoblox::pruning::coarse_prune;
use autoblox::tuner::{Tuner, TunerOptions};
use autoblox::validator::{Validator, ValidatorOptions};
use iotrace::gen::WorkloadKind;
use ssdsim::config::{presets, SsdConfig};

fn quick_validator(events: usize) -> Validator {
    Validator::new(ValidatorOptions {
        trace_events: events,
        ..Default::default()
    })
}

/// One full pruning + tuning pass, reduced to comparable JSON (f64s must be
/// bit-identical for the serializations to match).
fn pipeline_fingerprint() -> (String, String, u64) {
    let v = quick_validator(300);
    let space = autoblox::ParamSpace::with_params(&[
        "channel_count",
        "data_cache_size",
        "read_latency",
        "init_delay",
    ]);
    let coarse = coarse_prune(&space, &SsdConfig::default(), WorkloadKind::Database, &v);
    let opts = TunerOptions {
        max_iterations: 4,
        sgd_iterations: 2,
        convergence_window: 3,
        non_target: vec![WorkloadKind::WebSearch, WorkloadKind::Fiu],
        ..Default::default()
    };
    let tuner = Tuner::new(Constraints::paper_default(), &v, opts);
    let out = tuner.tune(WorkloadKind::Database, &presets::intel_750(), &[], None);
    (
        serde_json::to_string(&coarse).expect("coarse serializes"),
        serde_json::to_string(&out).expect("outcome serializes"),
        v.simulator_runs(),
    )
}

/// The tentpole acceptance criterion: coarse pruning and a short tuning run
/// produce identical results — and identical simulator-run counts — at
/// 1 thread and at 4 threads.
///
/// This is the only test in this binary that touches the process-wide thread
/// override, so it cannot race other tests over it.
#[test]
fn pipeline_is_deterministic_across_thread_counts() {
    parallel::set_max_threads(1);
    let sequential = pipeline_fingerprint();
    parallel::set_max_threads(4);
    let parallel4 = pipeline_fingerprint();
    parallel::set_max_threads(0);
    assert_eq!(
        sequential.0, parallel4.0,
        "coarse_prune must not depend on the thread count"
    );
    assert_eq!(
        sequential.1, parallel4.1,
        "Tuner::tune must not depend on the thread count"
    );
    assert_eq!(
        sequential.2, parallel4.2,
        "the simulator-run count must not depend on the thread count"
    );
}

/// Concurrency smoke test: many threads hammering one shared validator over
/// the same working set must agree with a sequential run on every
/// measurement, and the per-key in-flight deduplication must keep the
/// simulator-run count exactly sequential.
#[test]
fn hammered_validator_matches_sequential() {
    let configs: Vec<SsdConfig> = (0..5)
        .map(|i| SsdConfig {
            channel_count: 2 + 2 * i,
            ..SsdConfig::default()
        })
        .collect();
    let kinds = [WorkloadKind::Database, WorkloadKind::WebSearch];

    let sequential = quick_validator(200);
    for cfg in &configs {
        for &k in &kinds {
            sequential.evaluate(cfg, k);
        }
    }
    let expected_runs = sequential.simulator_runs();
    assert_eq!(expected_runs, (configs.len() * kinds.len()) as u64);

    let shared = quick_validator(200);
    std::thread::scope(|scope| {
        for worker in 0..8 {
            let configs = &configs;
            let kinds = &kinds;
            let shared = &shared;
            let sequential = &sequential;
            scope.spawn(move || {
                // Each worker walks the working set from a different offset
                // so cold-cache collisions on the same key are guaranteed.
                for step in 0..configs.len() * kinds.len() {
                    let i = (step + worker) % (configs.len() * kinds.len());
                    let cfg = &configs[i / kinds.len()];
                    let k = kinds[i % kinds.len()];
                    assert_eq!(shared.evaluate(cfg, k), sequential.evaluate(cfg, k));
                }
            });
        }
    });
    assert_eq!(
        shared.simulator_runs(),
        expected_runs,
        "concurrent cache misses on one key must run the simulator once"
    );
}

/// The explicit-thread-count mapper must be order-preserving and agree with
/// its own sequential path when driving real validator work.
#[test]
fn parallel_map_evaluations_match_sequential_order() {
    let v = quick_validator(200);
    let kinds = vec![
        WorkloadKind::Database,
        WorkloadKind::WebSearch,
        WorkloadKind::Fiu,
        WorkloadKind::KvStore,
    ];
    let cfg = SsdConfig::default();
    let par = parallel::parallel_map_with(4, kinds.clone(), |k| v.evaluate(&cfg, k));
    let seq: Vec<_> = kinds.iter().map(|&k| v.evaluate(&cfg, k)).collect();
    assert_eq!(par, seq);
}

/// `tune --speculate 0` (the default) asks for one candidate per CPU, which
/// the tuner caps at half the worker threads: with `AUTOBLOX_THREADS=8` on a
/// smaller machine it used to queue eight candidates per iteration and throw
/// most of them away. An explicit `--speculate K` is capped the same way,
/// and the tune's output is byte-identical whatever the width.
#[test]
fn default_speculation_is_capped_at_the_machine() {
    use std::process::Command;

    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let dir = std::env::temp_dir().join(format!("abx-cli-speculate-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // Runs the CLI; returns its stdout and the speculative simulator runs
    // its telemetry report counted.
    let tune = |tag: &str, threads: &str, speculate: Option<usize>| -> (String, u64) {
        let telemetry = dir.join(format!("{tag}.json"));
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_autoblox"));
        cmd.env("AUTOBLOX_THREADS", threads)
            .args(["tune", "database", "--iterations", "3", "--events", "300"])
            .arg("--telemetry")
            .arg(&telemetry);
        if let Some(k) = speculate {
            cmd.arg("--speculate").arg(k.to_string());
        }
        let out = cmd.output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{tag}: {stderr}");
        let report = std::fs::read_to_string(&telemetry).expect("telemetry written");
        let report = autoblox::telemetry::RunReport::parse_checked(&report).expect("parses");
        (
            String::from_utf8(out.stdout).expect("utf-8 stdout"),
            report.validator.speculative_runs,
        )
    };
    let sequential = tune("sequential", "1", Some(1));
    let auto = tune("auto", "8", None);
    let capped = tune("capped", "8", Some(cpus.min(8)));
    let wide = tune("wide", "8", Some(8));
    std::fs::remove_dir_all(&dir).unwrap();

    assert_eq!(
        sequential.1, 0,
        "one candidate per iteration is no lookahead"
    );
    assert_eq!(auto.0, sequential.0, "auto width changed the tune output");
    assert_eq!(
        wide.0, sequential.0,
        "explicit width changed the tune output"
    );
    assert_eq!(
        auto.1, capped.1,
        "auto must speculate exactly as --speculate <cpus> does"
    );
    assert!(
        auto.1 <= wide.1,
        "auto ({}) must not speculate beyond an explicit --speculate 8 ({})",
        auto.1,
        wide.1
    );
}
