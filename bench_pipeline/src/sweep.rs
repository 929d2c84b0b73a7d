//! `sim_sweep`: the simulator alone, one thread, no tuner, validator,
//! pruning, mlkit or autodb. A fixed list of cells, each
//! `Simulator::new -> warm_up -> run` (and `drain` on the saturated cell)
//! timed from outside.
//!
//! It is the workload a simulator optimisation shows on undiluted and a
//! tuner or mlkit change must not move. The three pressure cells are the
//! only place garbage collection and SLC->QLC folds run at all: the 512 GiB
//! devices of the tuning workloads never fill.

use crate::metrics::Values;
use crate::stats::Fingerprint;
use crate::unit::{clocked, timed, Ctx, Piece, Tracing, Unit};
use iotrace::gen::WorkloadKind;
use iotrace::{Trace, TraceEvent};
use ssdsim::config::{presets, CacheMode, DeviceFamily, MigrationPolicy, SsdConfig};
use ssdsim::{BottleneckReport, SimReport, Simulator};
use std::time::Instant;
use telemetry::span::Span;

/// What a cell must show besides completing every request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pressure {
    None,
    /// Garbage collection must fire.
    Gc,
    /// The SLC cache must fold pages into the capacity tier.
    Fold,
}

struct Cell {
    name: &'static str,
    kind: WorkloadKind,
    cfg: SsdConfig,
    /// Events at full size, chosen so every cell replays for 0.2-0.4 s on
    /// the 2-CPU host the benchmark was sized on.
    events: usize,
    warm_fill: f64,
    /// Timestamps zeroed, as in the validator's saturated replay; followed
    /// by a drain.
    saturated: bool,
    pressure: Pressure,
}

pub const CELL_NAMES: [&str; 11] = [
    "read_nvme",
    "mixed_nvme",
    "mixed_nvme_sat",
    "large_nvme",
    "write_nvme",
    "read_sata",
    "mixed_hybrid",
    "write_hybrid",
    "gc_small",
    "fold_idle",
    "fold_watermark",
];

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

/// The 2-channel/32-block hybrid device of `bench_hybrid_migration`: cache
/// blocks seal and fold within a short trace.
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

fn cells() -> [Cell; 11] {
    use WorkloadKind::{CloudStorage, Database, Fiu, WebSearch};
    let cell = |name, kind, cfg, events| Cell {
        name,
        kind,
        cfg,
        events,
        warm_fill: 0.5,
        saturated: false,
        pressure: Pressure::None,
    };
    let cells = [
        cell("read_nvme", WebSearch, presets::intel_750(), 240_000),
        cell("mixed_nvme", Database, presets::intel_750(), 200_000),
        Cell {
            saturated: true,
            ..cell("mixed_nvme_sat", Database, presets::intel_750(), 200_000)
        },
        cell("large_nvme", CloudStorage, presets::intel_750(), 30_000),
        cell("write_nvme", Fiu, presets::intel_750(), 200_000),
        cell("read_sata", WebSearch, presets::samsung_850_pro(), 240_000),
        cell("mixed_hybrid", Database, presets::hybrid_slc_qlc(), 200_000),
        cell("write_hybrid", Fiu, presets::hybrid_slc_qlc(), 200_000),
        Cell {
            warm_fill: 0.8,
            pressure: Pressure::Gc,
            ..cell("gc_small", Fiu, gc_device(), 120_000)
        },
        Cell {
            pressure: Pressure::Fold,
            ..cell(
                "fold_idle",
                Fiu,
                fold_device(MigrationPolicy::Idle),
                120_000,
            )
        },
        Cell {
            pressure: Pressure::Fold,
            ..cell(
                "fold_watermark",
                Fiu,
                fold_device(MigrationPolicy::Watermark),
                120_000,
            )
        },
    ];
    debug_assert!(cells.iter().map(|c| c.name).eq(CELL_NAMES));
    cells
}

/// Folds everything simulated about one cell into the fingerprint.
fn fingerprint_cell(fp: &mut Fingerprint, r: &SimReport, drained_ns: u64) {
    fp.float(r.latency.mean_ns);
    fp.word(r.latency.p99_ns);
    fp.word(r.latency.count);
    fp.word(r.makespan_ns);
    fp.word(r.host_bytes);
    fp.word(drained_ns);
    let f = &r.flash;
    for w in [
        f.programs,
        f.migrated_pages,
        f.erases,
        f.gc_invocations,
        f.wearleveling_swaps,
        f.slc_migrated_pages,
        r.read_breakdown.flash_reads,
    ] {
        fp.word(w);
    }
}

pub fn run_unit(ctx: &Ctx, traced: bool) -> Unit {
    let cells = cells();
    let shrink = ctx.sizes.sweep_shrink;

    // Set-up: generate every cell's trace.
    let (traces, gen_s) = clocked(|| {
        cells
            .iter()
            .map(|c| {
                let t = c.kind.spec().generate(c.events / shrink, ctx.seed);
                if !c.saturated {
                    return t;
                }
                let zeroed = t
                    .events()
                    .iter()
                    .map(|e| TraceEvent::new(0, e.lba, e.size_bytes, e.op));
                Trace::from_events(t.name(), zeroed.collect())
            })
            .collect::<Vec<Trace>>()
    });
    let gen_events: usize = traces.iter().map(Trace::len).sum();

    let mut layers = Values::new();
    let mut failures = Vec::new();
    let mut fp = Fingerprint::default();
    let mut sum = SimReportSums::default();
    let (mut new_s, mut warm_s, mut run_s, mut drain_s) = (0.0, 0.0, 0.0, 0.0);
    let mut pieces = Vec::with_capacity(cells.len());

    let tracing = Tracing::start(traced);
    let root = Span::enter(crate::ledger::ROOT);
    for (cell, trace) in cells.iter().zip(&traces) {
        let _cell = Span::enter("bench.ssdsim.cell");
        let cell_start = Instant::now();
        let (mut sim, t) = timed("bench.ssdsim.new", || Simulator::new(cell.cfg.clone()));
        new_s += t;
        warm_s += timed("bench.ssdsim.warm_up", || sim.warm_up(cell.warm_fill)).1;
        let (report, cell_run_s) = timed("bench.ssdsim.run", || sim.run(trace));
        run_s += cell_run_s;
        let mut drained_ns = 0;
        if cell.saturated {
            let (ns, t) = timed("bench.ssdsim.drain", || sim.drain(report.makespan_ns));
            drained_ns = ns;
            drain_s += t;
        }
        pieces.push(Piece {
            wall_s: cell_start.elapsed().as_secs_f64(),
            sim_s: cell_run_s,
        });

        if report.latency.count != trace.len() as u64 {
            failures.push(format!(
                "{}: {} of {} requests completed",
                cell.name,
                report.latency.count,
                trace.len()
            ));
        }
        match cell.pressure {
            Pressure::Gc if report.flash.gc_invocations == 0 => {
                failures.push(format!("{}: garbage collection never fired", cell.name));
            }
            Pressure::Fold if report.flash.slc_migrated_pages == 0 => {
                failures.push(format!("{}: no page was folded to QLC", cell.name));
            }
            _ => {}
        }
        fingerprint_cell(&mut fp, &report, drained_ns);
        sum.add(&report);
        layers.insert(
            format!("ssdsim.cell.{}.events_per_s", cell.name),
            trace.len() as f64 / cell_run_s,
        );
        layers.insert(
            format!("ssdsim.cell.{}.mean_latency_us", cell.name),
            report.mean_latency_us(),
        );
    }
    drop(root);
    if let Some((_, broken)) = tracing.finish(&mut layers) {
        failures.extend(broken);
    }

    layers.insert("iotrace.gen_s".into(), gen_s);
    layers.insert("iotrace.gen_events".into(), gen_events as f64);
    layers.insert("ssdsim.runs".into(), cells.len() as f64);
    layers.insert("ssdsim.events".into(), gen_events as f64);
    layers.insert("ssdsim.new_s".into(), new_s);
    layers.insert("ssdsim.warm_up_s".into(), warm_s);
    layers.insert("ssdsim.run_s".into(), run_s);
    layers.insert("ssdsim.drain_s".into(), drain_s);
    layers.insert(
        "ssdsim.ns_per_event".into(),
        run_s * 1e9 / gen_events as f64,
    );
    sum.write(&mut layers);

    Unit {
        setup_s: vec![gen_s],
        pieces,
        sim_events: gen_events as u64,
        ops: cells.len() as u64,
        failures,
        fingerprint: fp.value(),
        layers,
    }
}

/// Simulated activity summed over the sweep's cells.
#[derive(Default)]
struct SimReportSums {
    flash_reads: u64,
    flash_programs: u64,
    flash_erases: u64,
    gc_invocations: u64,
    slc_migrated_pages: u64,
    /// Simulated ns: total request latency, then the attributed waits in
    /// [`BottleneckReport::from_totals`]'s argument order.
    waits: [u64; 7],
}

impl SimReportSums {
    fn add(&mut self, r: &SimReport) {
        self.flash_reads += r.read_breakdown.flash_reads;
        self.flash_programs += r.flash.programs + r.flash.migrated_pages;
        self.flash_erases += r.flash.erases;
        self.gc_invocations += r.flash.gc_invocations;
        self.slc_migrated_pages += r.flash.slc_migrated_pages;
        let b = &r.bottleneck;
        for (sum, ns) in self.waits.iter_mut().zip([
            b.total_latency_ns,
            b.channel_wait_ns,
            b.plane_wait_ns,
            b.gc_stall_ns,
            b.cache_miss_ns,
            b.queue_wait_ns,
            b.slc_migration_ns,
        ]) {
            *sum += ns;
        }
    }

    fn write(&self, layers: &mut Values) {
        layers.insert("ssdsim.flash_reads".into(), self.flash_reads as f64);
        layers.insert("ssdsim.flash_programs".into(), self.flash_programs as f64);
        layers.insert("ssdsim.flash_erases".into(), self.flash_erases as f64);
        layers.insert("ssdsim.gc_invocations".into(), self.gc_invocations as f64);
        layers.insert(
            "ssdsim.slc_migrated_pages".into(),
            self.slc_migrated_pages as f64,
        );
        let [total, channel, plane, gc, cache_miss, queue, slc] = self.waits;
        write_shares(
            layers,
            &BottleneckReport::from_totals(total, channel, plane, gc, cache_miss, queue, slc),
        );
    }
}

/// The simulated wait shares of a bottleneck attribution: where request
/// latency went inside the modelled device, rescaled to sum to at most 1.
pub fn write_shares(layers: &mut Values, b: &BottleneckReport) {
    for (name, share) in [
        ("host_queue", b.host_queue_frac),
        ("channel_wait", b.channel_wait_frac),
        ("plane_busy", b.plane_wait_frac),
        ("cache_miss", b.cache_miss_frac),
        ("gc_stall", b.gc_stall_frac),
        ("slc_migration", b.slc_migration_frac),
    ] {
        layers.insert(format!("ssdsim.share.{name}"), share);
    }
}
