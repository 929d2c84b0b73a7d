//! Fine-grained pruning fans its validations out on the worker pool; the
//! report must not depend on the pool's width, and it must equal — bit for
//! bit — what the one-at-a-time loop produced before the fan-out existed.

use autoblox::constraints::Constraints;
use autoblox::parallel;
use autoblox::pruning::{fine_prune, FineOptions, FineReport};
use autoblox::validator::{Validator, ValidatorOptions};
use autoblox::{AutoBlox, AutoBloxOptions, ParamSpace};
use iotrace::gen::WorkloadKind;
use ssdsim::config::{presets, SsdConfig};

const PARAMS: [&str; 5] = [
    "channel_count",
    "data_cache_size",
    "read_latency",
    "page_metadata_capacity",
    "init_delay",
];

/// One `fine_prune` case over [`PARAMS`] (24 samples, WebSearch, 400-event
/// validator) and what the sequential loop of the commit before the fan-out
/// returned for it.
struct Recorded {
    /// Parameters the regression runs over.
    names: &'static [&'static str],
    /// `(name, coefficient bits, pruned)` in regression order.
    coefficients: &'static [(&'static str, u64, bool)],
    r_squared_bits: u64,
    samples_used: u64,
    attempts: u64,
    tuning_order: &'static [&'static str],
    simulator_runs: u64,
    cache_misses: u64,
}

/// Five parameters: every draw is a distinct configuration.
const ALL_FIVE: Recorded = Recorded {
    names: &PARAMS,
    coefficients: &[
        ("channel_count", 4609641301817555594, false),
        ("data_cache_size", 13806452729752809748, false),
        ("read_latency", 13822696626171772789, false),
        ("page_metadata_capacity", 4592481421942905168, false),
        ("init_delay", 13811412914062270903, false),
    ],
    r_squared_bits: 4606593976358953827,
    samples_used: 24,
    attempts: 24,
    tuning_order: &[
        "channel_count",
        "read_latency",
        "page_metadata_capacity",
        "init_delay",
        "data_cache_size",
    ],
    // Two pairs of draws differ only in the inert parameters, which the
    // simulator cannot see: they share one measurement each.
    simulator_runs: 23,
    cache_misses: 23,
};

/// Two parameters: the 24 draws land on 17 distinct configurations (plus the
/// baseline), so the duplicate bookkeeping decides `xs`/`ys`.
const TWO_WITH_DUPLICATES: Recorded = Recorded {
    names: &["channel_count", "page_metadata_capacity"],
    coefficients: &[
        ("channel_count", 4608754083242199436, false),
        ("page_metadata_capacity", 13804764354080013365, false),
    ],
    r_squared_bits: 4606179992684230065,
    samples_used: 24,
    attempts: 24,
    tuning_order: &["channel_count", "page_metadata_capacity"],
    // `page_metadata_capacity` is inert: the 17 configurations and the
    // baseline are 9 simulated devices.
    simulator_runs: 9,
    cache_misses: 9,
};

/// One case on a fresh validator: the report, the simulator-run count and
/// the cache-miss count.
fn fine_case(names: &[&str]) -> (FineReport, u64, u64) {
    let v = Validator::new(ValidatorOptions {
        trace_events: 400,
        ..Default::default()
    });
    let space = ParamSpace::with_params(&PARAMS);
    let report = fine_prune(
        &space,
        &SsdConfig::default(),
        WorkloadKind::WebSearch,
        names,
        &v,
        FineOptions {
            samples: 24,
            ..Default::default()
        },
    );
    (report, v.simulator_runs(), v.stats().cache_misses)
}

/// Both pruning stages through the framework, as comparable JSON.
fn framework_prune() -> (String, String, u64) {
    let v = Validator::new(ValidatorOptions {
        trace_events: 200,
        ..Default::default()
    });
    let fw = AutoBlox::new(
        Constraints::paper_default(),
        &v,
        autodb::Store::in_memory(),
        AutoBloxOptions {
            fine: FineOptions {
                samples: 16,
                ..Default::default()
            },
            ..Default::default()
        },
    );
    let (mut coarse, mut fine) = fw.prune(WorkloadKind::Fiu, &presets::hybrid_slc_qlc());
    coarse.wall_ns = 0;
    for sweep in &mut coarse.sweeps {
        sweep.sweep_ns = 0;
    }
    fine.fit_ns = 0;
    fine.wall_ns = 0;
    (
        serde_json::to_string(&coarse).expect("coarse serializes"),
        serde_json::to_string(&fine).expect("fine serializes"),
        v.simulator_runs(),
    )
}

/// The only test in this binary: it flips the process-wide pool width and
/// the telemetry switch (cache-miss counts accumulate only while it is on),
/// so nothing may run beside it.
#[test]
fn fine_prune_is_bit_identical_at_any_pool_width() {
    autoblox::telemetry::set_enabled(true);
    for width in [1, 2, 4] {
        parallel::set_max_threads(width);
        for case in [&ALL_FIVE, &TWO_WITH_DUPLICATES] {
            let (report, simulator_runs, cache_misses) = fine_case(case.names);
            let coefficients: Vec<(&str, u64, bool)> = report
                .coefficients
                .iter()
                .map(|c| (c.name.as_str(), c.coefficient.to_bits(), c.pruned))
                .collect();
            let what = format!("{:?} at width {width}", case.names);
            assert_eq!(coefficients, case.coefficients, "coefficients, {what}");
            assert_eq!(
                report.r_squared.to_bits(),
                case.r_squared_bits,
                "R², {what}"
            );
            assert_eq!(report.samples_used, case.samples_used, "{what}");
            assert_eq!(report.attempts, case.attempts, "{what}");
            assert_eq!(report.tuning_order(), case.tuning_order, "{what}");
            assert_eq!(simulator_runs, case.simulator_runs, "runs, {what}");
            assert_eq!(cache_misses, case.cache_misses, "misses, {what}");
        }
    }

    parallel::set_max_threads(1);
    let sequential = framework_prune();
    parallel::set_max_threads(4);
    let parallel4 = framework_prune();
    parallel::set_max_threads(0);
    autoblox::telemetry::set_enabled(false);
    assert_eq!(
        sequential, parallel4,
        "AutoBlox::prune must not depend on the thread count"
    );
}
