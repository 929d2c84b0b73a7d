//! Device-family invariants, end to end: a hybrid SLC/QLC what-if must be
//! bit-identical across thread counts (the hybrid `tune` is a row of the
//! CLI contract), the bottleneck attribution must surface
//! SLC-migration stalls on a write-heavy trace, and measurements stored
//! under one device family must never be served to the other.
//!
//! One test toggles the process-wide telemetry switch, so every test
//! that touches it serializes on one lock (test binaries run their
//! tests on concurrent threads within one process). The what-if
//! determinism test also owns the process-wide thread override while it
//! runs.

use autoblox::constraints::Constraints;
use autoblox::explain;
use autoblox::parallel;
use autoblox::telemetry;
use autoblox::tuner::{Tuner, TunerOptions};
use autoblox::validator::{Validator, ValidatorOptions};
use iotrace::gen::WorkloadKind;
use ssdsim::config::{presets, FlashTechnology, Interface, SsdConfig};
use std::sync::{Arc, Mutex, PoisonError};

// Guards both process-wide switches these tests flip: the telemetry
// switch and the thread-count override. Serializing on one lock keeps a
// concurrently running test from silently changing another's thread
// count mid-fingerprint.
static SWITCH_LOCK: Mutex<()> = Mutex::new(());

fn quick_validator(events: usize) -> Validator {
    Validator::new(ValidatorOptions {
        trace_events: events,
        ..Default::default()
    })
}

/// Constraints that pin the hybrid SLC/QLC family, with the capacity
/// band centered on the preset's *effective* (post-cache-shrink) bytes.
fn hybrid_constraints() -> Constraints {
    let reference = presets::hybrid_slc_qlc();
    Constraints::new(
        reference.effective_capacity_bytes() >> 30,
        Interface::Nvme,
        FlashTechnology::Qlc,
        25.0,
    )
    .with_family(reference.device_family)
}

/// Goal-driven what-if searches over the hybrid preset are byte-identical at
/// threads {1, 4}.
#[test]
fn hybrid_whatif_bit_identical_across_threads() {
    let _guard = SWITCH_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let whatif_fingerprint = || {
        let v = quick_validator(200);
        let opts = autoblox::whatif::WhatIfOptions {
            tuner: TunerOptions {
                max_iterations: 2,
                sgd_iterations: 2,
                ..Default::default()
            },
        };
        let out = autoblox::whatif::what_if(
            WorkloadKind::Fiu,
            autoblox::whatif::WhatIfGoal::LatencyReduction(1.5),
            hybrid_constraints(),
            &presets::hybrid_slc_qlc(),
            &v,
            opts,
        )
        .expect("the hybrid constraints admit a search");
        assert!(out.tuning.best.config.device_family.is_hybrid());
        serde_json::to_string(&out).expect("outcome serializes")
    };
    parallel::set_max_threads(1);
    let first = whatif_fingerprint();
    parallel::set_max_threads(4);
    let wide = whatif_fingerprint();
    parallel::set_max_threads(0);
    assert_eq!(wide, first, "hybrid whatif diverged at 4 threads");
}

/// `explain` end-to-end on a write-heavy hybrid device: the run report's
/// bottleneck attribution and the rendered fingerprint must both show a
/// non-zero `slc-migration` share. The default hybrid geometry is too
/// large for a short trace to seal cache blocks, so the test shrinks the
/// device the same way the simulator's own hybrid tests do.
#[test]
fn explain_attributes_slc_migration_on_write_heavy_trace() {
    let _guard = SWITCH_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    // The validator only retains per-run reports (and feeds its simulator
    // aggregate) while the telemetry switch is on.
    telemetry::set_enabled(true);
    autoblox::telemetry::global().clear();

    let cfg = SsdConfig {
        channel_count: 2,
        chips_per_channel: 1,
        dies_per_chip: 1,
        planes_per_die: 1,
        blocks_per_plane: 32,
        pages_per_block: 32,
        ..presets::hybrid_slc_qlc()
    };
    let v = quick_validator(3_000);
    let m = v.evaluate(&cfg, WorkloadKind::Fiu);
    assert!(m.throughput_bps > 0.0, "the hybrid device serves the trace");
    telemetry::set_enabled(false);

    let bottleneck = v.stats().sim.bottleneck();
    assert!(
        bottleneck.slc_migration_ns > 0,
        "folding cache blocks must be attributed to slc_migration"
    );
    assert!((0.0..=1.0).contains(&bottleneck.slc_migration_frac));

    // The same attribution flows through the run report into `explain`.
    let sink = telemetry::TelemetrySink::new();
    let report = sink.report(Some(&v));
    let fp = explain::explain(&report);
    let share = fp
        .shares
        .iter()
        .find(|s| s.resource == "slc-migration")
        .expect("fingerprint carries the slc-migration resource");
    assert!(
        share.frac > 0.0,
        "explain must show a non-zero slc-migration share"
    );
    let rendered = explain::render(&fp);
    assert!(rendered.contains("slc-migration"));
}

/// A store written under one device family serves nothing to a tune under
/// the other — every configuration carries its family into its memo key,
/// so dropping `--family` re-simulates instead of inheriting another
/// device's measurements — while the same family replays entirely from the
/// store.
#[test]
fn family_change_misses_the_memo() {
    let store = Arc::new(autodb::Store::in_memory());
    let tune = |constraints: Constraints, reference: SsdConfig| {
        let v = quick_validator(60);
        v.attach_store(Arc::clone(&store));
        let opts = TunerOptions {
            max_iterations: 2,
            sgd_iterations: 2,
            convergence_window: 2,
            non_target: vec![WorkloadKind::WebSearch],
            ..Default::default()
        };
        let out = Tuner::new(constraints, &v, opts).tune(WorkloadKind::Fiu, &reference, &[], None);
        let hybrid = out.best.config.device_family.is_hybrid();
        (hybrid, v.simulator_runs(), v.memo_hits())
    };
    let (hybrid, runs, _) = tune(hybrid_constraints(), presets::hybrid_slc_qlc());
    assert!(hybrid && runs > 0);
    // `--flash qlc` without `--family hybrid`, as the CLI builds it.
    let homogeneous = Constraints::new(512, Interface::Nvme, FlashTechnology::Qlc, 25.0);
    let (hybrid, _, hits) = tune(homogeneous, presets::intel_750());
    assert!(!hybrid);
    assert_eq!(
        hits, 0,
        "a homogeneous tune must not read hybrid measurements"
    );
    assert_eq!(
        tune(hybrid_constraints(), presets::hybrid_slc_qlc()),
        (true, 0, runs)
    );
}
