//! Device-observatory invariants: the bottleneck attribution must be a
//! pure function of (config, trace) — bit-identical at any thread count —
//! live even with telemetry off, and `explain` fingerprints must reproduce
//! exactly from the same telemetry document.
//!
//! These tests toggle the process-wide telemetry switch, so every test
//! that touches it serializes on one lock (test binaries run their tests
//! on concurrent threads within one process).

use autoblox::constraints::Constraints;
use autoblox::explain;
use autoblox::parallel;
use autoblox::report::Summary;
use autoblox::telemetry::{self, RunReport};
use autoblox::tuner::{Tuner, TunerOptions};
use autoblox::validator::{Validator, ValidatorOptions};
use iotrace::gen::WorkloadKind;
use ssdsim::config::{presets, SsdConfig};
use ssdsim::Simulator;
use std::sync::{Mutex, PoisonError};

static SWITCH_LOCK: Mutex<()> = Mutex::new(());

fn quick_validator(events: usize) -> Validator {
    Validator::new(ValidatorOptions {
        trace_events: events,
        ..Default::default()
    })
}

fn smoke_options() -> TunerOptions {
    TunerOptions {
        max_iterations: 2,
        sgd_iterations: 2,
        convergence_window: 2,
        non_target: vec![WorkloadKind::WebSearch],
        ..Default::default()
    }
}

/// Runs a telemetry-enabled smoke tune at the given thread count and
/// returns its run report.
fn observed_tune(threads: usize) -> RunReport {
    parallel::set_max_threads(threads);
    telemetry::set_enabled(true);
    autoblox::telemetry::global().clear();

    let v = quick_validator(200);
    let tuner = Tuner::new(Constraints::paper_default(), &v, smoke_options());
    autoblox::telemetry::global().phase("tune", || {
        tuner.tune(WorkloadKind::Database, &presets::intel_750(), &[], None)
    });
    let report = autoblox::telemetry::global().report(Some(&v));
    telemetry::set_enabled(false);
    report
}

/// With the telemetry switch off the always-on diagnostic counters still
/// attribute latency (they are plain adds, not worth gating).
#[test]
fn attribution_is_live_with_telemetry_off() {
    let _guard = SWITCH_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    telemetry::set_enabled(false);

    let trace = WorkloadKind::Database.spec().generate(500, 7);
    let mut sim = Simulator::new(SsdConfig::default());
    sim.warm_up(0.5);
    let report = sim.run(&trace);

    assert!(
        report.bottleneck.total_latency_ns > 0,
        "attribution counters are always on"
    );
    let frac_sum: f64 = report
        .bottleneck
        .fractions()
        .iter()
        .map(|(_, f)| f)
        .sum::<f64>()
        + report.bottleneck.other_frac;
    assert!((frac_sum - 1.0).abs() < 1e-9, "shares cover the latency");
}

/// `explain` end-to-end: a telemetry document from a smoke tune must
/// fingerprint reproducibly — the same document renders the same text,
/// and documents produced at 1 and 4 threads fingerprint bit-identically,
/// their aggregated bottleneck attributions included.
#[test]
fn explain_fingerprint_reproduces_across_thread_counts() {
    let _guard = SWITCH_LOCK.lock().unwrap_or_else(PoisonError::into_inner);

    let serial_report = observed_tune(1);
    let threaded_report = observed_tune(4);
    parallel::set_max_threads(0); // restore the default
    assert_eq!(serial_report.bottleneck, threaded_report.bottleneck);
    // The single-report view also shows where the host's time went; blank
    // those fields so the comparison is about the run, not the machine.
    let (serial_report, threaded_report) = (timeless(serial_report), timeless(threaded_report));

    // Round-trip through the on-disk format, as `autoblox explain` does.
    let json = serde_json::to_string_pretty(&serial_report).expect("report serializes");
    let parsed = RunReport::parse_checked(&json).expect("report parses");
    let fp = explain::explain(&parsed);

    assert!(fp.summary.bottleneck.total_latency_ns > 0);
    assert!(!fp.dominant.is_empty());
    assert_eq!(fp.shares.len(), 7, "six resources + other");
    let share_sum: f64 = fp.shares.iter().map(|s| s.frac).sum();
    assert!(share_sum <= 1.0 + 1e-9, "shares sum to at most 1");

    // Bit-identical fingerprints regardless of thread count.
    let fp_threaded = explain::explain(&threaded_report);
    assert_eq!(
        serde_json::to_string(&fp).unwrap(),
        serde_json::to_string(&fp_threaded).unwrap(),
        "fingerprint must not depend on thread count"
    );

    // Rendering is deterministic and the two runs summarise identically.
    assert_eq!(explain::render(&fp), explain::render(&fp_threaded));
    assert_eq!(
        Summary::of(&serial_report),
        Summary::of(&threaded_report),
        "identical runs: same summary, bottleneck included"
    );
}

/// A report with every host-varying field (thread limit, wall-clock and
/// pool counters) zeroed; everything simulated is left alone.
fn timeless(mut report: RunReport) -> RunReport {
    report.threads = 0;
    report.pool = Default::default();
    report.validator.simulate_ns = 0;
    for phase in &mut report.phases {
        phase.wall_ns = 0;
    }
    for record in report.tuner.iter_mut().flat_map(|t| &mut t.records) {
        record.wall_ns = 0;
        record.surrogate_fit_ns = 0;
    }
    report
}
