//! Golden hashes of full [`SimReport`]s: small versions of the eleven
//! `sim_sweep` cell shapes of `bench_pipeline` (one of them the saturated
//! replay followed by `drain`).
//!
//! A second table pins the validator's own shape — build, warm, clone, a
//! timed replay, a saturated replay on the clone, drain — for every studied
//! workload at 500 events on both device families, the traffic a tuning
//! search pays for.
//!
//! The simulator is the oracle the tuner trusts, so a change to its data
//! structures must not move one simulated number. Every field of every
//! report is folded into an FNV-1a hash (floats by `to_bits`) and compared
//! against constants recorded before the flat-LRU rewrite. The structs are
//! destructured without `..`, so a new report field fails to compile here
//! until it is hashed too.
//!
//! If the simulated behaviour changes on purpose, the failure message prints
//! the table to paste over `GOLDEN`; `ssdsim::SIM_MODEL` is pinned to that
//! table, so the next failure asks for the version bump that retires every
//! stored measurement of the old model.

use iotrace::gen::WorkloadKind;
use iotrace::{Trace, TraceEvent};
use ssdsim::config::{presets, CacheMode, DeviceFamily, MigrationPolicy, SsdConfig};
use ssdsim::flash::FlashStats;
use ssdsim::power::EnergyReport;
use ssdsim::report::{
    HistogramPercentiles, LatencyBuckets, LatencySummary, ReadBreakdown, WriteBreakdown,
};
use ssdsim::{BottleneckReport, DeviceSample, DeviceSeries, SimReport, Simulator};

const SEED: u64 = 7;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn float(&mut self, f: f64) {
        self.word(f.to_bits());
    }

    fn latency(&mut self, l: &LatencySummary) {
        let LatencySummary {
            count,
            mean_ns,
            p50_ns,
            p95_ns,
            p99_ns,
            max_ns,
        } = *l;
        self.word(count);
        self.float(mean_ns);
        for w in [p50_ns, p95_ns, p99_ns, max_ns] {
            self.word(w);
        }
    }

    fn sample(&mut self, s: &DeviceSample) {
        let DeviceSample {
            t_ns,
            channel_busy,
            plane_busy,
            gc_activity,
            queue_depth,
            data_cache_occupancy,
            data_cache_hit_rate,
            cmt_occupancy,
            cmt_hit_rate,
            gc_backlog_pages,
            write_amplification,
        } = *s;
        for w in [t_ns, queue_depth, gc_backlog_pages] {
            self.word(w);
        }
        for f in [
            channel_busy,
            plane_busy,
            gc_activity,
            data_cache_occupancy,
            data_cache_hit_rate,
            cmt_occupancy,
            cmt_hit_rate,
            write_amplification,
        ] {
            self.float(f);
        }
    }

    fn report(&mut self, r: &SimReport) {
        let SimReport {
            latency,
            read_latency,
            write_latency,
            throughput_bps,
            makespan_ns,
            host_bytes,
            read_cache_hit_rate,
            cmt_hit_rate,
            data_cache_evictions,
            cmt_evictions,
            latency_buckets: LatencyBuckets { counts },
            histogram_percentiles:
                HistogramPercentiles {
                    p50_ns,
                    p95_ns,
                    p99_ns,
                },
            flash:
                FlashStats {
                    programs,
                    migrated_pages,
                    erases,
                    gc_invocations,
                    wearleveling_swaps,
                    slc_migrated_pages,
                },
            read_breakdown:
                ReadBreakdown {
                    flash_reads,
                    mapping_reads,
                    mean_die_wait_ns: read_die_wait,
                    mean_channel_wait_ns: read_channel_wait,
                },
            write_breakdown:
                WriteBreakdown {
                    flash_programs,
                    mean_die_wait_ns: write_die_wait,
                    mean_channel_wait_ns: write_channel_wait,
                },
            bottleneck:
                BottleneckReport {
                    total_latency_ns,
                    channel_wait_ns,
                    plane_wait_ns,
                    gc_stall_ns,
                    cache_miss_ns,
                    queue_wait_ns,
                    slc_migration_ns,
                    channel_wait_frac,
                    plane_wait_frac,
                    gc_stall_frac,
                    cache_miss_frac,
                    host_queue_frac,
                    slc_migration_frac,
                    other_frac,
                },
            device:
                DeviceSeries {
                    interval_ns,
                    samples,
                    dropped,
                },
            write_amplification,
            energy:
                EnergyReport {
                    flash_mj,
                    dram_mj,
                    controller_mj,
                },
            average_power_w,
        } = r;
        self.latency(latency);
        self.latency(read_latency);
        self.latency(write_latency);
        for &w in [
            makespan_ns,
            host_bytes,
            data_cache_evictions,
            cmt_evictions,
            p50_ns,
            p95_ns,
            p99_ns,
            programs,
            migrated_pages,
            erases,
            gc_invocations,
            wearleveling_swaps,
            slc_migrated_pages,
            flash_reads,
            mapping_reads,
            flash_programs,
            total_latency_ns,
            channel_wait_ns,
            plane_wait_ns,
            gc_stall_ns,
            cache_miss_ns,
            queue_wait_ns,
            slc_migration_ns,
            interval_ns,
            dropped,
        ]
        .into_iter()
        .chain(counts)
        {
            self.word(w);
        }
        for &f in [
            throughput_bps,
            read_cache_hit_rate,
            cmt_hit_rate,
            read_die_wait,
            read_channel_wait,
            write_die_wait,
            write_channel_wait,
            channel_wait_frac,
            plane_wait_frac,
            gc_stall_frac,
            cache_miss_frac,
            host_queue_frac,
            slc_migration_frac,
            other_frac,
            write_amplification,
            flash_mj,
            dram_mj,
            controller_mj,
            average_power_w,
        ] {
            self.float(f);
        }
        self.word(samples.len() as u64);
        for s in samples {
            self.sample(s);
        }
    }
}

/// The 4-channel/64-block device of `ablation_ftl_policies`: small enough
/// that sustained overwrites trigger garbage collection.
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

/// The 2-channel/32-block hybrid device of `sim_sweep`'s `fold_*` cells:
/// cache blocks seal and fold within a short trace.
fn fold_device(policy: MigrationPolicy) -> SsdConfig {
    SsdConfig {
        channel_count: 2,
        chips_per_channel: 1,
        dies_per_chip: 1,
        planes_per_die: 1,
        blocks_per_plane: 32,
        pages_per_block: 32,
        cache_mode: CacheMode::WriteThrough,
        device_family: DeviceFamily::HybridSlcCache {
            cache_blocks_pct: 10.0,
            migration_policy: policy,
            migration_threshold_pct: 25.0,
        },
        ..presets::hybrid_slc_qlc()
    }
}

/// `trace` with every timestamp zeroed, as in the validator's saturated
/// replay.
fn saturated(trace: &Trace) -> Trace {
    let zeroed = trace
        .events()
        .iter()
        .map(|e| TraceEvent::new(0, e.lba, e.size_bytes, e.op));
    Trace::from_events(trace.name(), zeroed.collect())
}

/// The validator's replay of `kind` at 500 events on `cfg`: a hash of the
/// timed and the saturated report, and the drained ns.
fn validation(kind: WorkloadKind, cfg: SsdConfig) -> (u64, u64) {
    let trace = kind.spec().generate(500, SEED);
    let sat_trace = saturated(&trace);
    let mut sim = Simulator::new(cfg);
    sim.warm_up(0.5);
    let mut sat_sim = sim.clone();
    let timed = sim.run(&trace);
    let sat = sat_sim.run(&sat_trace);
    let drained_ns = sat_sim.drain(sat.makespan_ns);
    let mut h = Fnv::new();
    h.report(&timed);
    h.report(&sat);
    (h.0, drained_ns)
}

struct Cell {
    name: &'static str,
    kind: WorkloadKind,
    cfg: SsdConfig,
    events: usize,
    warm_fill: f64,
    /// Timestamps zeroed, as in the validator's saturated replay; followed
    /// by a drain.
    saturated: bool,
}

fn cells() -> Vec<Cell> {
    use WorkloadKind::{CloudStorage, Database, Fiu, WebSearch};
    let cell = |name, kind, cfg, events| Cell {
        name,
        kind,
        cfg,
        events,
        warm_fill: 0.5,
        saturated: false,
    };
    vec![
        cell("read_nvme", WebSearch, presets::intel_750(), 5_000),
        cell("mixed_nvme", Database, presets::intel_750(), 4_000),
        Cell {
            saturated: true,
            ..cell("mixed_nvme_sat", Database, presets::intel_750(), 4_000)
        },
        cell("large_nvme", CloudStorage, presets::intel_750(), 2_000),
        cell("write_nvme", Fiu, presets::intel_750(), 4_000),
        cell("read_sata", WebSearch, presets::samsung_850_pro(), 5_000),
        cell("mixed_hybrid", Database, presets::hybrid_slc_qlc(), 4_000),
        cell("write_hybrid", Fiu, presets::hybrid_slc_qlc(), 4_000),
        // The one cell above 5,000 events: at warm fill 0.8 this device
        // first collects garbage after ~9,000 FIU events.
        Cell {
            warm_fill: 0.8,
            ..cell("gc_small", Fiu, gc_device(), 12_000)
        },
        cell("fold_idle", Fiu, fold_device(MigrationPolicy::Idle), 3_000),
        cell(
            "fold_watermark",
            Fiu,
            fold_device(MigrationPolicy::Watermark),
            3_000,
        ),
    ]
}

/// `(cell, report hash, drained ns)` recorded at the parent of the flat-LRU
/// rewrite; `drained ns` is 0 for the cells that do not drain.
const GOLDEN: [(&str, u64, u64); 11] = [
    ("read_nvme", 0x96173710dd68b507, 0),
    ("mixed_nvme", 0x9f4d79efb6f2e077, 0),
    ("mixed_nvme_sat", 0x0448df95219c8881, 21412678),
    ("large_nvme", 0x65b03e998287ddf7, 0),
    ("write_nvme", 0x93b6c528d555d60a, 0),
    ("read_sata", 0xbf48bd0066f64799, 0),
    ("mixed_hybrid", 0xe9d365dcfc23e4df, 0),
    ("write_hybrid", 0xdc58351d0e8ce1b0, 0),
    ("gc_small", 0xb49a57925aa38f22, 0),
    ("fold_idle", 0x72a8ae3c0b75da14, 0),
    ("fold_watermark", 0xfcbbac20272d2b40, 0),
];

/// `(SIM_MODEL, hash of GOLDEN)`: the model version the table above was
/// recorded at. Regenerating the table moves the hash, and this pin then
/// asks for the bumped version, so a store never serves measurements from
/// an older simulator.
const GOLDEN_MODEL: (u32, u64) = (1, 0x79f8_8c0a_8e31_adf9);

#[test]
fn sim_model_is_pinned_to_the_golden_table() {
    let mut h = Fnv::new();
    for (name, hash, drained) in GOLDEN {
        name.bytes().for_each(|b| h.word(u64::from(b)));
        h.word(hash);
        h.word(drained);
    }
    assert_eq!(
        (ssdsim::SIM_MODEL, h.0),
        GOLDEN_MODEL,
        "the golden table or SIM_MODEL changed: bump ssdsim::SIM_MODEL to {} and set \
         GOLDEN_MODEL to ({}, {:#018x})",
        GOLDEN_MODEL.0 + 1,
        GOLDEN_MODEL.0 + 1,
        h.0
    );
}

#[test]
fn sim_sweep_cell_reports_match_golden() {
    let mut actual = Vec::new();
    for cell in cells() {
        let mut trace = cell.kind.spec().generate(cell.events, SEED);
        if cell.saturated {
            trace = saturated(&trace);
        }
        let mut sim = Simulator::new(cell.cfg);
        sim.warm_up(cell.warm_fill);
        let report = sim.run(&trace);
        assert_eq!(report.latency.count, trace.len() as u64, "{}", cell.name);
        let drained_ns = if cell.saturated {
            sim.drain(report.makespan_ns)
        } else {
            0
        };
        // The pressure cells must exercise what they exist for, or the
        // golden pins nothing about GC and folds.
        match cell.name {
            "gc_small" => assert!(report.flash.gc_invocations > 0, "GC never fired"),
            "fold_idle" | "fold_watermark" => {
                assert!(report.flash.slc_migrated_pages > 0, "{}", cell.name);
            }
            _ => {}
        }
        let mut h = Fnv::new();
        h.report(&report);
        actual.push((cell.name, h.0, drained_ns));
    }
    if actual != GOLDEN {
        let table: String = actual
            .iter()
            .map(|(name, hash, drained)| format!("    ({name:?}, {hash:#018x}, {drained}),\n"))
            .collect();
        panic!("simulated reports moved; actual table:\n{table}");
    }
}

/// `(workload, device, hash, drained ns)` of [`validation`] on every studied
/// workload, recorded before the mapping table's hashed chunks. Not part of
/// `GOLDEN_MODEL`'s pin: a change here that is meant asks for the same
/// `SIM_MODEL` bump the cell table's pin asks for.
const VALIDATION_GOLDEN: [(&str, &str, u64, u64); 14] = [
    ("Recomm", "intel_750", 0x03ddb8b6f7474854, 3135786),
    ("Recomm", "hybrid_slc_qlc", 0x8bb0cdb73638bf82, 2349782),
    ("KVStore", "intel_750", 0x90861671008752b5, 4965525),
    ("KVStore", "hybrid_slc_qlc", 0x8b1085ea25f7b327, 4129597),
    ("Database", "intel_750", 0x05eee1edc7ebed46, 3963351),
    ("Database", "hybrid_slc_qlc", 0x47e4033a17d259e3, 3346070),
    ("WebSearch", "intel_750", 0x6645750a8322407f, 4848367),
    ("WebSearch", "hybrid_slc_qlc", 0x5222c819c08b2083, 5858587),
    ("BatchAnalytics", "intel_750", 0xcd5b5cb098657428, 23026310),
    (
        "BatchAnalytics",
        "hybrid_slc_qlc",
        0x4c4626bc870f1956,
        21778864,
    ),
    ("CloudStorage", "intel_750", 0x15a62b6fe0574406, 19136524),
    (
        "CloudStorage",
        "hybrid_slc_qlc",
        0x9406cf11f8a33eab,
        13380924,
    ),
    ("LiveMaps", "intel_750", 0x4a4b7fce0b61b7be, 8371926),
    ("LiveMaps", "hybrid_slc_qlc", 0xcba5c17b353b6206, 6455112),
];

#[test]
fn validator_shaped_replays_match_golden() {
    let devices = [
        ("intel_750", presets::intel_750()),
        ("hybrid_slc_qlc", presets::hybrid_slc_qlc()),
    ];
    let mut actual = Vec::new();
    for kind in WorkloadKind::STUDIED {
        for (device, cfg) in &devices {
            let (hash, drained) = validation(kind, cfg.clone());
            actual.push((kind.name(), *device, hash, drained));
        }
    }
    if actual != VALIDATION_GOLDEN {
        let table: String = actual
            .iter()
            .map(|(kind, device, hash, drained)| {
                format!("    ({kind:?}, {device:?}, {hash:#018x}, {drained}),\n")
            })
            .collect();
        panic!("validator-shaped replays moved; actual table:\n{table}");
    }
}
