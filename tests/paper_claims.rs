//! Integration tests asserting the qualitative claims of the paper at
//! reduced scale: pruning discovers the inert parameters, the tuning order
//! does not hurt the result, validation pruning saves simulator runs, and
//! the coefficient sweeps behave as §4.6 describes.

use autoblox_repro::autoblox::constraints::Constraints;
use autoblox_repro::autoblox::metrics::{grade, performance, Measurement};
use autoblox_repro::autoblox::params::ParamSpace;
use autoblox_repro::autoblox::pruning::{coarse_prune, fine_prune, FineOptions};
use autoblox_repro::autoblox::tuner::{Tuner, TunerOptions};
use autoblox_repro::autoblox::validator::{Validator, ValidatorOptions};
use autoblox_repro::iotrace::gen::WorkloadKind;
use autoblox_repro::ssdsim::config::presets;

fn quick_validator() -> Validator {
    Validator::new(ValidatorOptions {
        trace_events: 400,
        ..Default::default()
    })
}

#[test]
fn coarse_pruning_finds_the_inert_parameters() {
    let v = quick_validator();
    let space = ParamSpace::new();
    let report = coarse_prune(&space, &presets::intel_750(), WorkloadKind::Database, &v);
    let insensitive = report.insensitive();
    // The deliberately inert parameters must all be discovered.
    for inert in [
        "page_metadata_capacity",
        "ecc_engine_count",
        "read_retry_limit",
        "background_scan_interval",
        "init_delay",
        "firmware_sram_size",
        "thermal_throttle_threshold",
        "pfail_flush_budget",
        "dram_refresh_interval",
        "nand_vcc",
    ] {
        assert!(
            insensitive.contains(&inert),
            "{inert} should be insensitive, got {insensitive:?}"
        );
    }
    // And the load-bearing layout parameters must survive.
    let sensitive = report.sensitive();
    assert!(sensitive.contains(&"channel_count"), "{sensitive:?}");
}

#[test]
fn insensitive_sets_differ_by_workload() {
    // §3.3: "these insensitive device parameters vary for different
    // workload types". Compare a read-only and a write-heavy workload.
    let v = quick_validator();
    let space = ParamSpace::new();
    let ws = coarse_prune(&space, &presets::intel_750(), WorkloadKind::WebSearch, &v);
    let fiu = coarse_prune(&space, &presets::intel_750(), WorkloadKind::Fiu, &v);
    assert_ne!(
        ws.insensitive(),
        fiu.insensitive(),
        "read-only and write-heavy workloads should disagree about sensitivity"
    );
}

#[test]
fn fine_pruning_produces_a_usable_tuning_order() {
    let v = quick_validator();
    let space = ParamSpace::new();
    let names = [
        "channel_count",
        "data_cache_size",
        "io_queue_depth",
        "init_delay",
    ];
    let report = fine_prune(
        &space,
        &presets::intel_750(),
        WorkloadKind::KvStore,
        &names,
        &v,
        FineOptions {
            samples: 20,
            ..Default::default()
        },
    );
    let order = report.tuning_order();
    assert!(!order.is_empty());
    // The order is sorted by |coefficient| descending.
    let coefs: Vec<f64> = order
        .iter()
        .map(|n| report.coefficient(n).unwrap().abs())
        .collect();
    for w in coefs.windows(2) {
        assert!(w[0] >= w[1]);
    }
}

#[test]
fn tuning_order_does_not_hurt_final_grade() {
    let constraints = Constraints::paper_default();
    let reference = presets::intel_750();
    let order = [
        "channel_count",
        "plane_allocation_scheme",
        "program_suspension",
    ];

    let run = |use_order: bool| {
        let v = quick_validator();
        let opts = TunerOptions {
            max_iterations: 6,
            use_tuning_order: use_order,
            non_target: vec![],
            ..TunerOptions::default()
        };
        let tuner = Tuner::new(constraints, &v, opts);
        tuner.tune(
            WorkloadKind::Database,
            &reference,
            &[],
            if use_order { Some(&order) } else { None },
        )
    };
    let with = run(true);
    let without = run(false);
    // Figure 9's claim, weakened to "not substantially worse" at this
    // reduced scale: the ordered search must stay within 25% of the
    // unordered one (it usually wins).
    assert!(
        with.best.grade >= without.best.grade * 0.75 - 0.05,
        "with order {} vs without {}",
        with.best.grade,
        without.best.grade
    );
}

#[test]
fn validation_pruning_saves_simulator_runs() {
    let constraints = Constraints::paper_default();
    let reference = presets::intel_750();
    let run = |pruning: bool| {
        let v = quick_validator();
        let opts = TunerOptions {
            max_iterations: 6,
            validation_pruning: pruning,
            non_target: vec![
                WorkloadKind::WebSearch,
                WorkloadKind::CloudStorage,
                WorkloadKind::Fiu,
            ],
            seed: 42,
            ..TunerOptions::default()
        };
        let tuner = Tuner::new(constraints, &v, opts);
        let out = tuner.tune(WorkloadKind::Database, &reference, &[], None);
        (out.validations, out.best.grade)
    };
    let (runs_with, grade_with) = run(true);
    let (runs_without, _) = run(false);
    assert!(
        runs_with <= runs_without,
        "pruning must not increase simulator runs ({runs_with} vs {runs_without})"
    );
    assert!(grade_with >= 0.0);
}

#[test]
fn formula1_alpha_balances_latency_and_throughput() {
    // §4.6: small alpha rewards latency-only improvements; large alpha
    // rewards throughput-only improvements.
    let reference = Measurement {
        latency_ns: 100.0,
        throughput_bps: 1e9,
        power_w: 5.0,
        energy_mj: 100.0,
    };
    let fast_but_narrow = Measurement {
        latency_ns: 50.0,
        throughput_bps: 0.5e9,
        ..reference
    };
    assert!(performance(&fast_but_narrow, &reference, 0.01) > 0.0);
    assert!(performance(&fast_but_narrow, &reference, 0.99) < 0.0);
    // alpha = 0.5 on a symmetric trade nets zero.
    assert!(performance(&fast_but_narrow, &reference, 0.5).abs() < 1e-12);
}

#[test]
fn formula2_beta_penalizes_non_target_regressions() {
    // A config that helps the target but hurts non-targets loses grade as
    // beta grows.
    let target_perf = 0.5;
    let non_target = [-0.4, -0.3];
    let g_small = grade(target_perf, &non_target, 0.01);
    let g_large = grade(target_perf, &non_target, 0.5);
    assert!(g_small > g_large);
}

#[test]
fn what_if_unlocks_flash_timing() {
    use autoblox_repro::autoblox::whatif::{what_if, WhatIfGoal, WhatIfOptions};
    let v = quick_validator();
    let opts = WhatIfOptions {
        tuner: TunerOptions {
            max_iterations: 8,
            sgd_iterations: 3,
            ..TunerOptions::default()
        },
    };
    let out = what_if(
        WorkloadKind::WebSearch,
        WhatIfGoal::LatencyReduction(1.2),
        Constraints::paper_default(),
        &presets::intel_750(),
        &v,
        opts,
    )
    .expect("the paper's constraints admit a search");
    // The what-if search may tune chip timings (normal tuning may not).
    assert!(out.tuning.best.config.read_latency_ns <= presets::intel_750().read_latency_ns);
    assert!(out.achieved >= 1.0);
}

#[test]
fn read_intensive_workloads_get_different_configurations() {
    // §4.2: "BatchAnalytics (97.8% Read) and WebSearch (99.9% Read) are
    // both read intensive workloads, AutoBlox shows that they can have
    // different optimized configurations" — coarse read/write-intensity
    // classification is not enough.
    let constraints = Constraints::paper_default();
    let reference = presets::intel_750();
    let tune = |kind| {
        let v = Validator::new(ValidatorOptions {
            trace_events: 800,
            ..Default::default()
        });
        let opts = TunerOptions {
            max_iterations: 8,
            non_target: vec![],
            ..TunerOptions::default()
        };
        Tuner::new(constraints, &v, opts).tune(kind, &reference, &[], None)
    };
    let batch = tune(WorkloadKind::BatchAnalytics);
    let web = tune(WorkloadKind::WebSearch);
    let space = ParamSpace::new();
    let vb = space.vectorize(&batch.best.config);
    let vw = space.vectorize(&web.best.config);
    assert_ne!(
        vb, vw,
        "two read-intensive workloads should still learn distinct configurations"
    );
}

#[test]
fn grade_initialization_uses_stored_experience() {
    // §3.4 step 1: recalled AutoDB configurations seed the model; a seeded
    // run must never end below the grade of its seed configuration.
    let constraints = Constraints::paper_default();
    let reference = presets::intel_750();
    let v = Validator::new(ValidatorOptions {
        trace_events: 500,
        ..Default::default()
    });
    let opts = TunerOptions {
        max_iterations: 5,
        non_target: vec![],
        ..TunerOptions::default()
    };
    let first = Tuner::new(constraints, &v, opts.clone()).tune(
        WorkloadKind::LiveMaps,
        &reference,
        &[],
        None,
    );
    let seeded = Tuner::new(constraints, &v, opts).tune(
        WorkloadKind::LiveMaps,
        &reference,
        std::slice::from_ref(&first.best.config),
        None,
    );
    assert!(
        seeded.best.grade >= first.best.grade - 1e-9,
        "seeded {} vs first {}",
        seeded.best.grade,
        first.best.grade
    );
}
