//! Device-observatory invariants: the sampled time series and the
//! bottleneck attribution must be pure functions of (config, trace) —
//! bit-identical at any thread count — the bounded sample buffer must
//! account for every drop, and `explain` fingerprints must reproduce
//! exactly from the same telemetry document.
//!
//! These tests toggle the process-wide telemetry switch, so every test
//! that touches it serializes on one lock (test binaries run their tests
//! on concurrent threads within one process).

use autoblox::constraints::Constraints;
use autoblox::explain;
use autoblox::journal::{Journal, JournalLine};
use autoblox::parallel;
use autoblox::report::Thresholds;
use autoblox::report_diff::diff_reports;
use autoblox::telemetry::{self, RunReport};
use autoblox::tuner::{Tuner, TunerOptions};
use autoblox::validator::{Validator, ValidatorOptions};
use iotrace::gen::WorkloadKind;
use ssdsim::config::{presets, SsdConfig};
use ssdsim::Simulator;
use std::sync::Mutex;

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

/// Runs a journaled smoke tune at the given thread count and returns the
/// device-observatory lines (`series` and `bottleneck` records) as a
/// sorted multiset, plus the final run report. Sorting canonicalizes the
/// interleaving: parallel workers may flush in any order, but the set of
/// records they produce must not change.
fn journaled_observatory(threads: usize) -> (Vec<String>, RunReport) {
    parallel::set_max_threads(threads);
    telemetry::set_enabled(true);
    autoblox::telemetry::global().clear();

    let path = std::env::temp_dir().join(format!(
        "autoblox-test-observatory-{}-t{threads}.jsonl",
        std::process::id()
    ));
    let path_str = path.to_string_lossy().into_owned();

    let journal = Journal::create(&path_str).expect("journal opens");
    autoblox::telemetry::global().attach_journal(journal.handle());

    let v = quick_validator(200);
    let tuner = Tuner::new(Constraints::paper_default(), &v, smoke_options());
    let outcome = autoblox::telemetry::global().phase("tune", || {
        tuner.tune(WorkloadKind::Database, &presets::intel_750(), &[], None)
    });
    autoblox::telemetry::global().record_outcome(&outcome);
    let report = autoblox::telemetry::global().report(Some(&v));

    autoblox::telemetry::global().detach_journal();
    journal.finish(&path_str).expect("journal closes");
    telemetry::set_enabled(false);

    let text = std::fs::read_to_string(&path).expect("journal readable");
    std::fs::remove_file(&path).ok();
    for line in text.lines() {
        assert!(JournalLine::parse(line).is_ok(), "unparsed line: {line}");
    }
    let mut lines: Vec<String> = text
        .lines()
        .filter(|l| l.contains("\"t\":\"series\"") || l.contains("\"t\":\"bottleneck\""))
        .map(str::to_owned)
        .collect();
    lines.sort_unstable();
    (lines, report)
}

/// The observatory-determinism invariant: the sampled device series and
/// the bottleneck attributions streamed to the journal are pure functions
/// of the work performed, not of the thread count that performed it.
#[test]
fn device_series_identical_across_thread_counts() {
    let _guard = SWITCH_LOCK.lock().unwrap();

    let (serial, serial_report) = journaled_observatory(1);
    let (threaded, threaded_report) = journaled_observatory(4);
    parallel::set_max_threads(0); // restore the default

    assert!(
        !serial.is_empty(),
        "a telemetry-enabled tune must stream device records"
    );
    assert!(
        serial.iter().any(|l| l.contains("\"t\":\"series\"")),
        "series records present"
    );
    assert!(
        serial.iter().any(|l| l.contains("\"t\":\"bottleneck\"")),
        "bottleneck records present"
    );
    assert_eq!(
        serial, threaded,
        "device records must not depend on thread count"
    );

    // The aggregated bottleneck attribution is likewise thread-invariant.
    assert_eq!(serial_report.bottleneck, threaded_report.bottleneck);
    assert!(serial_report.bottleneck.total_latency_ns > 0);

    // The CSV exporter flattens every sample that was journaled.
    let joined = serial.join("\n");
    let csv = autoblox::journal::export_csv(&joined).expect("csv export succeeds");
    let rows = csv.lines().count() - 1; // minus header
    assert!(rows > 0, "csv export produced no sample rows");
    assert_eq!(
        csv,
        autoblox::journal::export_csv(&threaded.join("\n")).expect("csv export succeeds"),
        "csv export is deterministic across thread counts"
    );
}

/// The bounded buffer keeps exactly `max_samples` samples and accounts
/// for everything it had to skip: with a pathologically fine interval the
/// cap is hit and the drop counter is non-zero.
#[test]
fn bounded_buffer_accounts_for_drops() {
    let _guard = SWITCH_LOCK.lock().unwrap();
    telemetry::set_enabled(true);

    let trace = WorkloadKind::Database.spec().generate(500, 7);
    let mut sim = Simulator::new(SsdConfig::default());
    sim.warm_up(0.5);
    sim.set_sampling(100, 8); // 100 ns interval, 8-sample cap: must overflow
    let report = sim.run(&trace);
    telemetry::set_enabled(false);

    assert_eq!(report.device.interval_ns, 100);
    assert_eq!(
        report.device.samples.len(),
        8,
        "buffer holds exactly the cap"
    );
    assert!(
        report.device.dropped > 0,
        "skipped intervals are counted, not silently lost"
    );
    for s in &report.device.samples {
        assert!((0.0..=1.0).contains(&s.channel_busy));
        assert!((0.0..=1.0).contains(&s.plane_busy));
        assert!((0.0..=1.0).contains(&s.gc_activity));
    }
    // Samples are strictly ordered in time.
    for pair in report.device.samples.windows(2) {
        assert!(pair[0].t_ns < pair[1].t_ns);
    }
}

/// With the telemetry switch off, sampling must not run at all — the
/// series stays empty — while the always-on diagnostic counters still
/// attribute latency (they are plain adds, not worth gating).
#[test]
fn sampling_off_leaves_series_empty_but_attribution_live() {
    let _guard = SWITCH_LOCK.lock().unwrap();
    telemetry::set_enabled(false);

    let trace = WorkloadKind::Database.spec().generate(500, 7);
    let mut sim = Simulator::new(SsdConfig::default());
    sim.warm_up(0.5);
    let report = sim.run(&trace);

    assert!(report.device.is_empty(), "no sampling when disabled");
    assert_eq!(report.device.dropped, 0);
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
/// and documents produced at 1 and 4 threads fingerprint bit-identically.
#[test]
fn explain_fingerprint_reproduces_across_thread_counts() {
    let _guard = SWITCH_LOCK.lock().unwrap();

    let (_, serial_report) = journaled_observatory(1);
    let (_, threaded_report) = journaled_observatory(4);
    parallel::set_max_threads(0);
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

    // Rendering is deterministic and a self-diff is clean.
    assert_eq!(explain::render(&fp), explain::render(&fp_threaded));
    let diff = diff_reports(
        &serial_report,
        &threaded_report,
        &Thresholds::default(),
        &[],
    );
    assert!(
        diff.notes.is_empty(),
        "identical runs: bottleneck stays put"
    );
    assert!(diff.metrics.iter().all(|d| d.delta.abs() < 1e-12));
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
