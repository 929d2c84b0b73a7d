//! Telemetry-layer invariants: counters must be exact under concurrency,
//! a disabled sink must cost nothing and trigger no simulator work, and the
//! structured report must round-trip through JSON.
//!
//! These tests toggle the process-wide telemetry switch, so every test that
//! touches it serializes on one lock (test binaries run their tests on
//! concurrent threads within one process).

use autoblox::constraints::Constraints;
use autoblox::journal::{Journal, JournalLine};
use autoblox::metrics::Measurement;
use autoblox::parallel;
use autoblox::telemetry::{self, RunReport, TelemetrySink};
use autoblox::tuner::{Tuner, TunerOptions};
use autoblox::validator::{SimAggregate, Validator, ValidatorOptions, ValidatorStats};
use iotrace::gen::WorkloadKind;
use iotrace::{Trace, TraceEvent};
use ssdsim::config::{presets, SsdConfig};
use ssdsim::{SimReport, Simulator};
use std::sync::{Mutex, PoisonError};
// The standalone `telemetry` crate (span tracing) vs the `autoblox::telemetry`
// module imported as `telemetry` above — disambiguate with a crate path.
use ::telemetry::span;

static SWITCH_LOCK: Mutex<()> = Mutex::new(());

fn quick_validator(events: usize) -> Validator {
    Validator::new(ValidatorOptions {
        trace_events: events,
        ..Default::default()
    })
}

fn working_set() -> (Vec<SsdConfig>, [WorkloadKind; 2]) {
    let configs: Vec<SsdConfig> = (0..5)
        .map(|i| SsdConfig {
            channel_count: 2 + 2 * i,
            ..SsdConfig::default()
        })
        .collect();
    (configs, [WorkloadKind::Database, WorkloadKind::WebSearch])
}

/// Hammers one shared validator with `workers` threads over the same
/// (config, workload) working set and returns its stats.
fn hammer(workers: usize) -> ValidatorStats {
    let (configs, kinds) = working_set();
    let v = quick_validator(200);
    std::thread::scope(|scope| {
        for worker in 0..workers {
            let configs = &configs;
            let kinds = &kinds;
            let v = &v;
            scope.spawn(move || {
                for step in 0..configs.len() * kinds.len() {
                    let i = (step + worker) % (configs.len() * kinds.len());
                    let cfg = &configs[i / kinds.len()];
                    v.evaluate(cfg, kinds[i % kinds.len()]);
                }
            });
        }
    });
    v.stats()
}

/// The cache-counter exactness criterion: misses are deterministic, and the
/// hit/dedup-wait split — however the race resolves — always sums to the
/// same total, at 1 worker and at 8.
#[test]
fn cache_counters_exact_under_hammering() {
    let _guard = SWITCH_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    telemetry::set_enabled(true);
    let single = hammer(1);
    let hammered = hammer(8);
    telemetry::set_enabled(false);

    let (configs, kinds) = working_set();
    let unique = (configs.len() * kinds.len()) as u64;

    for (label, stats, workers) in [("single", &single, 1u64), ("hammered", &hammered, 8)] {
        let probes = workers * unique;
        assert_eq!(stats.cache_misses, unique, "{label}: one miss per key");
        assert_eq!(stats.simulator_runs, unique, "{label}: one run per key");
        assert_eq!(
            stats.cache_hits + stats.dedup_waits,
            probes - unique,
            "{label}: every non-miss probe is a hit or a dedup wait"
        );
        assert_eq!(
            stats.shard_probes.iter().sum::<u64>(),
            probes,
            "{label}: shard probes account for every lookup"
        );
        assert_eq!(
            stats.shard_entries.iter().sum::<u64>(),
            unique,
            "{label}: one cache entry per key"
        );
        assert!(stats.simulate_ns > 0, "{label}: simulation time recorded");
        assert_eq!(stats.sim.runs, 2 * unique, "{label}: timed + saturated");
        assert!(stats.sim.flash_reads > 0);
        assert!(stats.sim.latency_buckets.total() > 0);
    }
}

/// Disabled telemetry must leave every gated counter at zero, record
/// nothing into a sink, and trigger no extra simulator work.
#[test]
fn disabled_sink_is_free() {
    let _guard = SWITCH_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    telemetry::set_enabled(false);

    let v = quick_validator(200);
    let cfg = SsdConfig::default();
    let sink = TelemetrySink::new();
    let m = sink.phase("evaluate", || v.evaluate(&cfg, WorkloadKind::Database));
    assert!(m.latency_ns > 0.0);
    let runs_after_work = v.simulator_runs();

    let report = sink.report(Some(&v));
    assert_eq!(
        v.simulator_runs(),
        runs_after_work,
        "taking a report must not run the simulator"
    );
    assert!(!report.enabled);
    assert!(report.phases.is_empty(), "disabled sink records no phases");
    assert!(report.tuner.is_empty());
    assert_eq!(report.validator.cache_hits, 0);
    assert_eq!(report.validator.cache_misses, 0);
    assert_eq!(report.validator.simulate_ns, 0);
    assert_eq!(report.validator.sim.runs, 0);
    // Always-exact fields still report: the evaluation did happen.
    assert_eq!(report.validator.simulator_runs, runs_after_work);
    assert_eq!(report.validator.shard_entries.iter().sum::<u64>(), 1);
}

/// What one validation at `threads` pool threads measured and absorbed:
/// the measurement and the simulator aggregate.
fn validate_at(
    threads: usize,
    cfg: &SsdConfig,
    kind: WorkloadKind,
) -> (Measurement, SimAggregate, Trace) {
    parallel::set_max_threads(threads);
    let v = quick_validator(400);
    let trace = v.trace_for(kind);
    let pool_before = parallel::pool_stats();
    let measured = v.evaluate_trace(cfg, &trace);
    let pool_batches = parallel::pool_stats().batches - pool_before.batches;
    // One thread makes no pool call; two split the replays in one batch.
    assert_eq!(
        pool_batches,
        u64::from(threads > 1),
        "{kind:?} at {threads}"
    );
    (measured, v.sim_aggregate(), (*trace).clone())
}

/// A validation warms one simulator and replays the saturated trace on a
/// clone of it, the two replays side by side on two pool threads. With
/// telemetry on, for every studied workload and the write-heavy FIU trace,
/// on a homogeneous and on a hybrid device, one thread and two must measure
/// and absorb the same, and equal what two independently built and warmed
/// simulators produce.
#[test]
fn warm_once_reports_match_independent_simulators() {
    let _guard = SWITCH_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    telemetry::set_enabled(true);
    for cfg in [presets::intel_750(), presets::hybrid_slc_qlc()] {
        for kind in WorkloadKind::STUDIED.into_iter().chain([WorkloadKind::Fiu]) {
            let (measured, agg, trace) = validate_at(1, &cfg, kind);
            let split = validate_at(2, &cfg, kind);
            assert_eq!(split.0, measured, "{kind:?}: measurement");
            assert_eq!(split.1, agg, "{kind:?}: simulator aggregate");

            let replay = |trace: &Trace| -> (SimReport, u64) {
                let mut sim = Simulator::new(cfg.clone());
                sim.warm_up(ValidatorOptions::default().warm_fill);
                let report = sim.run(trace);
                let drained_ns = sim.drain(report.makespan_ns).max(1);
                (report, drained_ns)
            };
            let (timed, _) = replay(&trace);
            let zeroed = trace
                .events()
                .iter()
                .map(|e| TraceEvent::new(0, e.lba, e.size_bytes, e.op));
            let (saturated, drained_ns) =
                replay(&Trace::from_events(trace.name(), zeroed.collect()));

            let mut expected = Measurement::from_report(&timed);
            expected.throughput_bps =
                (saturated.host_bytes as f64 / (drained_ns as f64 / 1e9)).max(1.0);
            assert_eq!(measured, expected, "{kind:?}");

            let mut expected_agg = SimAggregate::default();
            expected_agg.absorb(&timed);
            expected_agg.absorb(&saturated);
            assert_eq!(agg, expected_agg, "{kind:?}");
        }
    }
    parallel::set_max_threads(0);
    telemetry::set_enabled(false);
}

/// A fully populated report — tuner records, validator stats, pool counters
/// — must survive serde round-tripping bit-exactly. The tuner records into
/// the process-wide sink, so the report is taken from it.
#[test]
fn populated_report_round_trips_through_json() {
    let _guard = SWITCH_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    telemetry::set_enabled(true);
    parallel::reset_pool_stats();

    let v = quick_validator(200);
    let sink = telemetry::global();
    sink.clear();
    let opts = TunerOptions {
        max_iterations: 3,
        sgd_iterations: 2,
        convergence_window: 2,
        non_target: vec![WorkloadKind::WebSearch],
        ..Default::default()
    };
    let tuner = Tuner::new(Constraints::paper_default(), &v, opts);
    let outcome = sink.phase("tune", || {
        tuner.tune(WorkloadKind::Database, &presets::intel_750(), &[], None)
    });
    let report = sink.report(Some(&v));
    telemetry::set_enabled(false);

    assert!(report.enabled);
    assert_eq!(report.schema, RunReport::SCHEMA);
    assert_eq!(report.phases.len(), 1);
    assert_eq!(report.phases[0].name, "tune");
    assert!(report.phases[0].wall_ns > 0);
    assert_eq!(report.tuner.len(), 1);
    assert_eq!(report.tuner[0].iterations, outcome.iterations as u64);
    assert_eq!(report.tuner[0].records, outcome.iteration_records);
    assert!(report.tuner[0].records.iter().all(|r| r.wall_ns > 0));
    assert!(report.validator.simulator_runs > 0);
    assert!(report.validator.cache_misses > 0);

    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    let back = RunReport::parse_checked(&json).expect("report parses back");
    assert_eq!(report, back, "JSON round-trip must be lossless");
}

/// Runs a small tuning session with span tracing on and returns the
/// canonical span tree: the sorted, deduplicated set of
/// `(parent, id, name, disc)` edges. Racing duplicate builds collapse under
/// dedup, so two runs that did the same logical work produce the same tree
/// regardless of how the work was scheduled.
fn traced_span_tree(threads: usize) -> Vec<(u64, u64, &'static str, u64)> {
    parallel::set_max_threads(threads);
    span::reset_tracing_state();
    span::set_tracing(true);

    let v = quick_validator(200);
    let opts = TunerOptions {
        max_iterations: 2,
        sgd_iterations: 2,
        convergence_window: 2,
        non_target: vec![WorkloadKind::WebSearch],
        ..Default::default()
    };
    let tuner = Tuner::new(Constraints::paper_default(), &v, opts);
    let _ = tuner.tune(WorkloadKind::Database, &presets::intel_750(), &[], None);

    span::set_tracing(false);
    let mut spans = Vec::new();
    span::drain_spans(&mut spans);
    let mut tree: Vec<_> = spans
        .iter()
        .map(|s| (s.parent, s.id, s.name, s.disc))
        .collect();
    tree.sort_unstable();
    tree.dedup();
    tree
}

/// The span-determinism invariant: the canonical span tree of a run is a
/// pure function of the work performed, not of the thread count that
/// performed it. One worker and four workers must produce identical trees —
/// ids, parents, names, and discriminators all match.
#[test]
fn span_tree_identical_across_thread_counts() {
    let _guard = SWITCH_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    telemetry::set_enabled(false);

    let serial = traced_span_tree(1);
    let parallel_tree = traced_span_tree(4);
    parallel::set_max_threads(0); // restore the default

    assert!(
        serial.len() > 10,
        "the instrumented tune must produce a real tree, got {} spans",
        serial.len()
    );
    assert_eq!(
        serial, parallel_tree,
        "span tree must not depend on thread count"
    );
    let root = serial.iter().find(|(parent, ..)| *parent == 0);
    assert!(root.is_some(), "tree has a root span");
    assert!(
        serial
            .iter()
            .any(|(_, _, name, _)| *name == "tuner.iteration"),
        "tuner iterations are in the tree"
    );
    assert!(
        serial.iter().any(|(_, _, name, _)| *name == "sim.run"),
        "simulator phases are in the tree"
    );
}

/// End-to-end journal: a tuning run streamed to disk must produce a valid
/// JSONL file (meta first, summary last, no span dropped at this scale)
/// that the Chrome exporter accepts.
#[test]
fn journal_streams_run_and_exports_chrome_trace() {
    let _guard = SWITCH_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    telemetry::set_enabled(true);
    autoblox::telemetry::global().clear();

    let dir = std::env::temp_dir();
    let path = dir.join(format!(
        "autoblox-test-journal-{}.jsonl",
        std::process::id()
    ));
    let path_str = path.to_string_lossy().into_owned();

    let journal = Journal::create(&path_str).expect("journal opens");

    let v = quick_validator(200);
    let opts = TunerOptions {
        max_iterations: 2,
        sgd_iterations: 2,
        convergence_window: 2,
        non_target: vec![WorkloadKind::WebSearch],
        ..Default::default()
    };
    let tuner = Tuner::new(Constraints::paper_default(), &v, opts);
    let outcome = autoblox::telemetry::global().phase("tune", || {
        tuner.tune(WorkloadKind::Database, &presets::intel_750(), &[], None)
    });

    journal.finish().expect("journal closes");
    telemetry::set_enabled(false);

    let text = std::fs::read_to_string(&path).expect("journal readable");
    let lines: Vec<&str> = text.lines().collect();
    for line in &lines {
        assert!(JournalLine::parse(line).is_ok(), "unparsed line: {line}");
    }
    assert!(lines.len() > 3, "journal has meta + spans + summary");
    assert!(lines[0].contains("\"t\":\"meta\""), "first line is meta");
    assert!(
        lines[0].contains("autoblox.journal.v1"),
        "meta carries the schema"
    );
    let last = lines.last().unwrap();
    assert!(last.contains("\"t\":\"summary\""), "last line is summary");
    assert!(
        last.contains("\"spans_dropped\":0"),
        "nothing dropped at this scale: {last}"
    );
    assert!(
        text.contains("\"t\":\"iteration\""),
        "per-iteration records streamed"
    );
    assert_eq!(
        text.matches("\"t\":\"tune\"").count(),
        1,
        "one tune line closes the run"
    );

    assert!(
        !text.contains("\"t\":\"progress\""),
        "the retired progress kind is not written"
    );

    let chrome = autoblox::journal::export_chrome(&text).expect("chrome export succeeds");
    assert!(chrome.contains("traceEvents"));
    assert!(chrome.contains("tuner.iteration"));
    // Every tuner iteration and model line produced one instant event
    // (model lines also emit a counter, not an instant).
    let model_lines = text.matches("\"t\":\"model\"").count();
    let instants = chrome.matches("\"ph\":\"i\"").count();
    assert_eq!(
        instants,
        outcome.iterations + model_lines,
        "one instant per iteration and model line"
    );

    std::fs::remove_file(&path).ok();
}

/// A journal dropped without `finish` — an early return or a panic between
/// the two — must not leave span tracing armed for the rest of the process.
#[test]
fn dropping_an_unfinished_journal_disarms_tracing() {
    let _guard = SWITCH_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let path = std::env::temp_dir().join(format!(
        "autoblox-test-dropped-journal-{}.jsonl",
        std::process::id()
    ));
    let journal = Journal::create(&path.to_string_lossy()).expect("journal opens");
    assert!(span::tracing_enabled(), "a journal arms tracing");
    drop(journal);
    assert!(!span::tracing_enabled(), "dropping it disarms tracing");
    std::fs::remove_file(&path).ok();
}
