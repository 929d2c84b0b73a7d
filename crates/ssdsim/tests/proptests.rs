//! Property-based tests for the flash array and the simulator: allocation
//! must conserve pages, GC must reclaim what it erases, and the simulator
//! must stay internally consistent for arbitrary configurations, and it
//! must not observe the fields `SsdConfig::sim_words` collapses.

use iotrace::gen::WorkloadKind;
use iotrace::{Trace, TraceEvent};
use proptest::prelude::*;
use ssdsim::config::{
    presets, DeviceFamily, FlashTechnology, GcPolicy, MigrationPolicy, PlaneAllocationScheme,
    SsdConfig,
};
use ssdsim::flash::{pseudo_location, FlashArray};
use ssdsim::{BottleneckReport, SimReport, Simulator};

fn arb_layout() -> impl Strategy<Value = SsdConfig> {
    (
        1u32..=4,
        1u32..=3,
        1u32..=2,
        prop::sample::select(vec![1u32, 2, 4]),
        prop::sample::select(vec![8u32, 16, 32]),
        prop::sample::select(vec![8u32, 16, 32]),
        0usize..16,
        prop::bool::ANY,
    )
        .prop_map(
            |(ch, chips, dies, planes, blocks, pages, scheme, greedy)| SsdConfig {
                channel_count: ch,
                chips_per_channel: chips,
                dies_per_chip: dies,
                planes_per_die: planes,
                blocks_per_plane: blocks,
                pages_per_block: pages,
                plane_allocation_scheme: PlaneAllocationScheme::ALL[scheme],
                gc_policy: if greedy {
                    GcPolicy::Greedy
                } else {
                    GcPolicy::Random
                },
                gc_threshold: 0.2,
                gc_hard_threshold: 0.01,
                ..SsdConfig::default()
            },
        )
}

fn arb_hybrid_layout() -> impl Strategy<Value = SsdConfig> {
    (arb_layout(), 5.0f64..=40.0, 10.0f64..=80.0, prop::bool::ANY).prop_map(
        |(cfg, cache_pct, threshold_pct, watermark)| SsdConfig {
            flash_technology: FlashTechnology::Qlc,
            device_family: DeviceFamily::HybridSlcCache {
                cache_blocks_pct: cache_pct,
                migration_policy: if watermark {
                    MigrationPolicy::Watermark
                } else {
                    MigrationPolicy::Idle
                },
                migration_threshold_pct: threshold_pct,
            },
            ..cfg
        },
    )
}

/// The 4-channel/64-block device of `sim_sweep`'s `gc_small` cell. Warmed
/// to `GC_WARM_FILL` it collects garbage from the first writes, and over
/// 5,000 FIU events the erase spread usually grows enough for wear leveling
/// to swap.
fn gc_device() -> SsdConfig {
    SsdConfig {
        channel_count: 4,
        chips_per_channel: 2,
        dies_per_chip: 2,
        planes_per_die: 2,
        blocks_per_plane: 64,
        pages_per_block: 64,
        data_cache_mb: 64,
        cmt_capacity_mb: 64,
        overprovisioning_ratio: 0.07,
        gc_threshold: 0.15,
        gc_hard_threshold: 0.01,
        ..SsdConfig::default()
    }
}

const GC_WARM_FILL: f64 = 0.95;

/// What the validator observes of one device: the timed replay, the
/// saturated replay of the same warmed device, and that replay's drain.
fn validator_replays(
    cfg: &SsdConfig,
    warm_fill: f64,
    trace: &Trace,
) -> (SimReport, SimReport, u64) {
    let mut timed = Simulator::new(cfg.clone());
    timed.warm_up(warm_fill);
    let mut saturated = timed.clone();
    let zeroed = trace
        .events()
        .iter()
        .map(|e| TraceEvent::new(0, e.lba, e.size_bytes, e.op));
    let sat_report = saturated.run(&Trace::from_events(trace.name(), zeroed.collect()));
    let drained_ns = saturated.drain(sat_report.makespan_ns);
    (timed.run(trace), sat_report, drained_ns)
}

/// Values for the fields `sim_words` collapses: the twelve the simulator
/// never reads, then `suspend_program_ns` and `static_wearleveling_threshold`.
fn arb_collapsed() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0u32..100_000, 14)
}

/// `cfg` with every collapsed field set from `v`, each within its gate.
fn perturbed(cfg: &SsdConfig, v: &[u32]) -> SsdConfig {
    let mut out = SsdConfig {
        suspend_erase_ns: u64::from(v[0]),
        dram_burst_bytes: v[1],
        page_metadata_bytes: v[2],
        ecc_engine_count: v[3],
        read_retry_limit: v[4],
        background_scan_interval_ms: v[5],
        init_delay_us: v[6],
        firmware_sram_kb: v[7],
        thermal_throttle_c: v[8],
        pfail_flush_budget_uj: v[9],
        dram_refresh_interval_us: v[10],
        nand_vcc_mv: v[11],
        ..cfg.clone()
    };
    if !cfg.program_suspension_enabled {
        out.suspend_program_ns = u64::from(v[12]);
    }
    if !cfg.static_wearleveling_enabled {
        out.static_wearleveling_threshold = v[13];
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Configurations with equal `sim_words` simulate identically: on four
    /// devices (GC-bound among them), with suspension and wear leveling
    /// each on and off, perturbing every collapsed field changes none of
    /// the validator's three observations.
    #[test]
    fn collapsed_fields_do_not_change_any_replay(v in arb_collapsed(), seed in 0u64..1_000) {
        let devices = [
            (presets::intel_750(), WorkloadKind::Database, 400, 0.5),
            (presets::hybrid_slc_qlc(), WorkloadKind::Fiu, 400, 0.5),
            (presets::samsung_850_pro(), WorkloadKind::Database, 400, 0.5),
            (gc_device(), WorkloadKind::Fiu, 5_000, GC_WARM_FILL),
        ];
        for (device, kind, events, warm_fill) in devices {
            let trace = kind.spec().generate(events, seed);
            for (suspend, wear_level) in [(false, false), (false, true), (true, false), (true, true)] {
                let base = SsdConfig {
                    program_suspension_enabled: suspend,
                    static_wearleveling_enabled: wear_level,
                    static_wearleveling_threshold: 1,
                    ..device.clone()
                };
                let other = perturbed(&base, &v);
                prop_assert_eq!(other.sim_words(), base.sim_words());
                let replays = validator_replays(&base, warm_fill, &trace);
                if warm_fill == GC_WARM_FILL {
                    prop_assert!(replays.0.flash.gc_invocations > 0, "GC never ran");
                }
                prop_assert_eq!(validator_replays(&other, warm_fill, &trace), replays);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn striping_cycles_through_every_plane(cfg in arb_layout()) {
        let mut fa = FlashArray::new(&cfg);
        let total = cfg.total_planes();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..total {
            let p = fa.next_write_plane();
            prop_assert!(u64::from(p) < total);
            seen.insert(p);
        }
        // One full cycle touches every plane exactly once.
        prop_assert_eq!(seen.len() as u64, total);
    }

    #[test]
    fn programs_conserve_page_accounting(cfg in arb_layout(), writes in 1usize..300) {
        let mut fa = FlashArray::new(&cfg);
        let before: u64 = (0..cfg.total_planes() as u32).map(|p| fa.free_pages(p)).sum();
        let mut programmed = 0u64;
        for _ in 0..writes {
            let plane = fa.next_write_plane();
            let (block, _page, _ops) = fa.program_page(plane);
            fa.invalidate(plane, block);
            programmed += 1;
        }
        let after: u64 = (0..cfg.total_planes() as u32).map(|p| fa.free_pages(p)).sum();
        let stats = fa.stats();
        // free_before - free_after = programs (host + migrations) - reclaimed.
        let reclaimed = stats.erases * u64::from(cfg.pages_per_block);
        let consumed = stats.programs + stats.migrated_pages;
        prop_assert_eq!(before + reclaimed, after + consumed);
        prop_assert_eq!(stats.programs, programmed);
    }

    #[test]
    fn sustained_overwrites_never_exhaust_the_device(cfg in arb_layout()) {
        let mut fa = FlashArray::new(&cfg);
        fa.warm_up(0.5);
        // Overwrite forever on plane 0: GC must keep the device alive.
        let churn = cfg.pages_per_plane() * 3;
        for i in 0..churn {
            let (block, _page, _ops) = fa.program_page(0);
            if i % 2 == 0 {
                fa.invalidate(0, block);
            } else {
                fa.invalidate_somewhere(0, i);
            }
        }
        prop_assert!(fa.stats().erases > 0);
        prop_assert!(fa.free_pages(0) <= cfg.pages_per_plane());
    }

    #[test]
    fn hybrid_migration_conserves_pages(cfg in arb_hybrid_layout(), writes in 1usize..400) {
        let mut fa = FlashArray::new(&cfg);
        let ppb = u64::from(cfg.pages_per_block);
        let cache_pages = u64::from(fa.slc_cache_blocks()) * ppb;
        let capacity_pages = cfg.pages_per_plane() - cache_pages;
        prop_assert!(fa.slc_cache_blocks() >= 1);
        for i in 0..writes {
            let plane = fa.next_write_plane();
            let (block, _page, _ops) = fa.program_page(plane);
            if i % 3 == 0 {
                fa.invalidate(plane, block);
            }
        }
        let stats = fa.stats();
        // Tier accounting is exact: every page the array consumed is either
        // still free, was reclaimed by an erase, or was paid for by a host
        // program, a GC migration, or an SLC fold.
        let free: u64 = (0..cfg.total_planes() as u32)
            .map(|p| fa.free_pages(p) + fa.cache_free_pages(p))
            .sum();
        let reclaimed = stats.erases * ppb;
        let consumed = stats.programs + stats.migrated_pages + stats.slc_migrated_pages;
        prop_assert_eq!(cfg.pages_per_plane() * cfg.total_planes() + reclaimed, free + consumed);
        for p in 0..cfg.total_planes() as u32 {
            // Neither tier can ever exceed its physical size.
            prop_assert!(fa.valid_pages(p) <= cfg.pages_per_plane());
            prop_assert!(fa.free_pages(p) <= capacity_pages);
            prop_assert!(fa.cache_free_pages(p) <= cache_pages);
        }
    }

    #[test]
    fn hybrid_survives_sustained_overwrites(cfg in arb_hybrid_layout()) {
        let mut fa = FlashArray::new(&cfg);
        fa.warm_up(0.5);
        let churn = cfg.pages_per_plane() * 3;
        for i in 0..churn {
            let (block, _page, _ops) = fa.program_page(0);
            if i % 2 == 0 {
                fa.invalidate(0, block);
            } else {
                fa.invalidate_somewhere(0, i);
            }
        }
        let stats = fa.stats();
        prop_assert!(stats.slc_migrated_pages > 0, "sustained writes must fold cache blocks");
        prop_assert!(stats.erases > 0);
        let cache_pages = u64::from(fa.slc_cache_blocks()) * u64::from(cfg.pages_per_block);
        prop_assert!(fa.cache_free_pages(0) <= cache_pages);
        prop_assert!(fa.free_pages(0) <= cfg.pages_per_plane() - cache_pages);
        prop_assert!(fa.valid_pages(0) <= cfg.pages_per_plane());
    }

    #[test]
    fn pseudo_locations_are_valid_and_deterministic(cfg in arb_layout(), lpns in prop::collection::vec(0u64..1_000_000, 1..50)) {
        let fa = FlashArray::new(&cfg);
        for &lpn in &lpns {
            let a = pseudo_location(&cfg, lpn);
            prop_assert_eq!(a, pseudo_location(&cfg, lpn));
            // The simulator's table lookup is the same placement.
            prop_assert_eq!(fa.pseudo_plane(lpn), a.plane_index(&cfg));
            prop_assert!(a.channel < cfg.channel_count);
            prop_assert!(a.chip < cfg.chips_per_channel);
            prop_assert!(a.die < cfg.dies_per_chip);
            prop_assert!(a.plane < cfg.planes_per_die);
            prop_assert!(a.block < cfg.blocks_per_plane);
            prop_assert!(a.page < cfg.pages_per_block);
            prop_assert!(u64::from(a.plane_index(&cfg)) < cfg.total_planes());
        }
    }

    #[test]
    fn bottleneck_fractions_stay_normalized(
        total in 0u64..u64::MAX / 8,
        channel in 0u64..u64::MAX / 8,
        plane in 0u64..u64::MAX / 8,
        gc in 0u64..u64::MAX / 8,
        cache in 0u64..u64::MAX / 8,
        queue in 0u64..u64::MAX / 8,
        slc in 0u64..u64::MAX / 8,
    ) {
        let report = BottleneckReport::from_totals(total, channel, plane, gc, cache, queue, slc);
        let mut sum = 0.0f64;
        for (name, frac) in report.fractions() {
            prop_assert!((0.0..=1.0).contains(&frac), "{name} = {frac} out of range");
            sum += frac;
        }
        prop_assert!((0.0..=1.0).contains(&report.other_frac), "other = {} out of range", report.other_frac);
        sum += report.other_frac;
        // The attributed fractions can never explain more than 100% of
        // the observed latency; `other` absorbs exactly the remainder.
        prop_assert!(sum <= 1.0 + 1e-9, "fractions sum to {sum}");
        if total > 0 {
            prop_assert!(sum >= 1.0 - 1e-9, "with latency observed, shares must cover it (sum = {sum})");
        }
        prop_assert!(!report.dominant().is_empty());
    }

    #[test]
    fn derived_quantities_are_consistent(cfg in arb_layout()) {
        prop_assert_eq!(
            cfg.physical_capacity_bytes(),
            cfg.total_planes()
                * u64::from(cfg.blocks_per_plane)
                * u64::from(cfg.pages_per_block)
                * u64::from(cfg.page_size_bytes)
        );
        prop_assert!(cfg.logical_capacity_bytes() <= cfg.physical_capacity_bytes());
        prop_assert_eq!(cfg.total_planes(), cfg.total_dies() * u64::from(cfg.planes_per_die));
        prop_assert!(cfg.channel_transfer_ns() > 0);
        prop_assert!(cfg.link_bandwidth_bps() > 0.0);
    }
}
