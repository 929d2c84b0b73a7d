//! Fleet-placement invariants: the local search must never end worse than
//! its greedy seed, and the memoized validator must make repeated
//! placements free. That the report and the simulator-run count do not
//! depend on the thread count is a row of the CLI contract
//! (`cli_contract.rs`).

use std::sync::Arc;

use autoblox::place::{degradation_frac, place, PlacementOptions};
use autoblox::validator::{Validator, ValidatorOptions};
use iotrace::gen::{generate, WorkloadKind};
use iotrace::Trace;
use proptest::prelude::*;
use ssdsim::config::presets;

/// A pinned 4-tenant mix, each tenant renamed so the validator's
/// per-trace-name memoization treats them as distinct streams.
fn tenant_mix(events: usize) -> Vec<Arc<Trace>> {
    [
        WorkloadKind::Database,
        WorkloadKind::WebSearch,
        WorkloadKind::KvStore,
        WorkloadKind::BatchAnalytics,
    ]
    .iter()
    .enumerate()
    .map(|(i, &kind)| {
        let t = generate(kind, events, 11);
        Arc::new(Trace::from_events(
            format!("t{i}:{}", kind.name()),
            t.events().to_vec(),
        ))
    })
    .collect()
}

/// Classification is exercised end to end by the CLI contract; the unit
/// tests run with the fallback configuration so they stay fast.
fn quick_opts(devices: usize) -> PlacementOptions {
    PlacementOptions {
        devices,
        classify: false,
        ..Default::default()
    }
}

/// Local search starts from the greedy seed and only ever applies strict
/// improvements, so the final cost can never exceed the greedy cost.
#[test]
fn local_search_never_worse_than_greedy() {
    let tenants = tenant_mix(500);
    let v = Validator::new(ValidatorOptions {
        trace_events: 500,
        ..Default::default()
    });
    for devices in [1, 2, 3] {
        let report = place(
            &tenants,
            &presets::intel_750(),
            None,
            &v,
            &quick_opts(devices),
        )
        .expect("placement succeeds");
        assert!(
            report.final_cost <= report.greedy_cost,
            "devices={devices}: final {} must not exceed greedy {}",
            report.final_cost,
            report.greedy_cost
        );
        assert!(report.final_cost.is_finite() && report.greedy_cost.is_finite());
    }
}

/// Exact simulator-run accounting for the smallest non-trivial placement:
/// two tenants on one device cost exactly three runs — one entitled solo
/// run per tenant plus one merged-pair run. The greedy seed's singleton
/// evaluation reuses the entitled measurement through the validator cache,
/// and a second placement on the same validator is served entirely from
/// cache, adding zero runs.
#[test]
fn merged_trace_run_counts_are_exact() {
    let tenants: Vec<Arc<Trace>> = tenant_mix(400).into_iter().take(2).collect();
    let v = Validator::new(ValidatorOptions {
        trace_events: 400,
        ..Default::default()
    });
    let first = place(&tenants, &presets::intel_750(), None, &v, &quick_opts(1))
        .expect("placement succeeds");
    assert_eq!(
        first.simulator_runs, 3,
        "2 tenants on 1 device = 2 entitled runs + 1 merged run"
    );
    let again = place(&tenants, &presets::intel_750(), None, &v, &quick_opts(1))
        .expect("repeat placement succeeds");
    assert_eq!(
        again.simulator_runs, 3,
        "a repeated placement must be served from the validator cache"
    );
    assert_eq!(
        serde_json::to_string(&first.tenants).expect("serializes"),
        serde_json::to_string(&again.tenants).expect("serializes"),
        "cached and fresh placements must agree"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The degradation fraction is total: any pair of f64s — including
    /// NaN, infinities, zeros, and negatives — maps to a finite,
    /// non-negative fraction. The vendored proptest only draws finite
    /// values, so the special cases are spliced in via the selector pair.
    #[test]
    fn degradation_fractions_are_finite_and_non_negative(
        co_raw in any::<f64>(),
        solo_raw in any::<f64>(),
        co_kind in 0usize..6,
        solo_kind in 0usize..6,
    ) {
        let special = |raw: f64, kind: usize| match kind {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => 0.0,
            4 => -0.0,
            _ => raw,
        };
        let co = special(co_raw, co_kind);
        let solo = special(solo_raw, solo_kind);
        let d = degradation_frac(co, solo);
        prop_assert!(d.is_finite(), "degradation_frac({co}, {solo}) = {d}");
        prop_assert!(d >= 0.0, "degradation_frac({co}, {solo}) = {d}");
    }
}
