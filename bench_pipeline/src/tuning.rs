//! The three tuning workloads.
//!
//! `tune_read_homog` and `tune_write_hybrid` run the whole pipeline the way
//! `autoblox tune` wires it: parse the target trace, window it, classify it,
//! prune, tune with the fine-prune order, store the result in a file-backed
//! AutoDB. One is read-dominated on the homogeneous NVMe/MLC device, the
//! other write-heavy on the hybrid SLC/QLC family, so a gain on one flash
//! data path that costs the other shows.
//!
//! `search_many_short` has no pruning stage: seven categories tuned in
//! sequence against one shared validator on short traces with convergence
//! disabled. It is where the tuner's own loop, the GPR fit, the validator
//! cache and speculation have the largest share of wall time they ever get.

use crate::ledger::{Ledger, ROOT};
use crate::metrics::Values;
use crate::stats::{percentile, Fingerprint};
use crate::sweep::write_shares;
use crate::unit::{clocked, set_up, timed, Ctx, Piece, Tracing, Unit};
use autoblox::clustering::ClusterDecision;
use autoblox::framework::StoredConfig;
use autoblox::tuner::{Tuner, TunerOptions, TuningOutcome};
use autoblox::validator::{Validator, ValidatorOptions, ValidatorStats};
use autoblox::{AutoBlox, AutoBloxOptions, Constraints};
use autodb::Store;
use iotrace::gen::WorkloadKind;
use iotrace::parse::{parse_csv, write_csv};
use iotrace::window::{window_features, WindowOptions};
use iotrace::Trace;
use mlkit::parallel::{pool_stats, PoolStats};
use ssdsim::config::{presets, FlashTechnology, Interface, SsdConfig};
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;
use telemetry::span::Span;

/// The clustering front end as `autoblox classify` trains it: 6,000 events
/// per studied category, 1,000-event windows.
const TRAIN_EVENTS: usize = 6_000;
const WINDOW: WindowOptions = WindowOptions { window_len: 1_000 };

/// One of the two pipeline workloads.
#[derive(Debug, Clone, Copy)]
pub struct Pipeline {
    pub kind: WorkloadKind,
    pub hybrid: bool,
    /// Whether classification must report the trace as a new workload
    /// (Table 3) instead of matching its own studied cluster (Table 2).
    pub expect_new: bool,
}

pub const TUNE_READ_HOMOG: Pipeline = Pipeline {
    kind: WorkloadKind::WebSearch,
    hybrid: false,
    expect_new: false,
};

pub const TUNE_WRITE_HYBRID: Pipeline = Pipeline {
    kind: WorkloadKind::Fiu,
    hybrid: true,
    expect_new: true,
};

impl Pipeline {
    /// Constraints and the pinned reference, as `autoblox tune` derives them
    /// from `--family`.
    fn device(&self) -> (Constraints, SsdConfig) {
        if !self.hybrid {
            return (Constraints::paper_default(), presets::intel_750());
        }
        let mut reference = presets::hybrid_slc_qlc();
        let constraints = Constraints::new(512, Interface::Nvme, FlashTechnology::Qlc, 25.0)
            .with_family(reference.device_family);
        constraints.pin(&mut reference);
        (constraints, reference)
    }
}

/// What a pipeline set-up leaves for the measured section.
struct Prepared {
    validator: Validator,
    store: Store,
    /// One labelled trace per studied category, for the clustering front end.
    train: Vec<Trace>,
    /// Host seconds spent in trace generation, and the events generated.
    gen_s: f64,
    gen_events: usize,
}

impl Pipeline {
    /// Generates the target and training traces, writes the target as CSV,
    /// and opens a fresh validator and a fresh file-backed AutoDB.
    fn prepare(&self, ctx: &Ctx, csv_path: &Path, db_path: &Path) -> Prepared {
        let events = ctx.sizes.pipeline_events;
        let ((target, train), gen_s) = clocked(|| {
            let target = self.kind.spec().generate(ctx.sizes.target_events, ctx.seed);
            let train = WorkloadKind::STUDIED.map(|k| k.spec().generate(TRAIN_EVENTS, ctx.seed));
            (target, train.to_vec())
        });
        let mut csv = BufWriter::new(File::create(csv_path).expect("scratch dir is writable"));
        write_csv(&target, &mut csv).expect("trace CSV written");
        csv.flush().expect("trace CSV flushed");
        let validator = Validator::new(ValidatorOptions {
            trace_events: events,
            seed: ctx.seed,
            ..ValidatorOptions::default()
        });
        let _ = std::fs::remove_file(db_path);
        Prepared {
            validator,
            store: Store::open(db_path).expect("AutoDB log opens in the scratch dir"),
            gen_s,
            gen_events: ctx.sizes.target_events + TRAIN_EVENTS * train.len(),
            train,
        }
    }
}

pub fn run_pipeline(p: Pipeline, ctx: &Ctx, traced: bool) -> Unit {
    let events = ctx.sizes.pipeline_events;
    let (constraints, reference) = p.device();
    let csv_path = ctx.dir.join("target.csv");
    let db_path = ctx.dir.join("autodb.log");
    let opts = AutoBloxOptions {
        tuner: TunerOptions {
            max_iterations: ctx.sizes.pipeline_iterations,
            // Never converges early: every seed pays the same number of
            // outer steps, so wall time compares across seeds.
            convergence_window: ctx.sizes.pipeline_iterations + 1,
            speculative_batch: ctx.threads,
            non_target: WorkloadKind::STUDIED
                .into_iter()
                .filter(|&w| w != p.kind)
                .take(3)
                .collect(),
            ..TunerOptions::default()
        },
        window: WINDOW,
        ..AutoBloxOptions::default()
    };

    // Set-up, SETUP_REPS times; the last one is kept. The framework borrows
    // the validator, so it is assembled and its clustering front end trained
    // once, on the set-up that is kept, and that time is added to each.
    let (prepared, mut setup_s) = set_up(|| p.prepare(ctx, &csv_path, &db_path));
    let Prepared {
        validator,
        store,
        train,
        gen_s,
        gen_events,
    } = prepared;
    let ((fw, fit_s), assemble_s) = clocked(|| {
        let mut fw = AutoBlox::new(constraints, &validator, store, opts);
        let ((), fit_s) = clocked(|| {
            fw.train_clustering(&train, train.len())
                .expect("clustering trains on the studied categories")
        });
        (fw, fit_s)
    });
    setup_s.iter_mut().for_each(|s| *s += assemble_s);
    // The cluster the target's own category trained into: what a studied
    // workload must be classified as.
    let clusterer = fw.clusterer().expect("just trained");
    let own_cluster = WorkloadKind::STUDIED
        .iter()
        .position(|&k| k == p.kind)
        .and_then(|i| clusterer.classify(&train[i]).ok())
        .and_then(ClusterDecision::existing);

    let mut layers = Values::new();
    let mut failures = Vec::new();
    let mut fp = Fingerprint::default();
    let pool_before = pool_stats();

    let tracing = Tracing::start(traced);
    let root = Span::enter(ROOT);
    let (trace, parse_s) = timed("bench.iotrace.parse", || {
        let file = File::open(&csv_path).expect("trace CSV was written by set-up");
        parse_csv(p.kind.name(), BufReader::new(file)).expect("trace CSV parses")
    });
    let (windows, window_s) = timed("bench.iotrace.window", || {
        window_features(&trace, WINDOW).len()
    });
    let (decision, classify_s) = timed("bench.clustering.classify", || {
        fw.clusterer().expect("trained").classify(&trace)
    });
    let ((coarse, fine), prune_s) = timed("bench.pruning", || fw.prune(p.kind, &reference));
    let order = fine.tuning_order();
    let (outcome, tune_s) = timed("bench.tuner", || {
        fw.tune_category(p.kind, &reference, Some(&order))
    });
    let (stored, get_s) = timed("bench.autodb.get", || {
        fw.db()
            .get_record::<Vec<StoredConfig>>(&format!("category:{}", p.kind.name()))
    });
    let (flushed, flush_s) = timed("bench.autodb.flush", || fw.db().flush());
    drop(root);
    let sensitive = coarse.sensitive().len();
    let ledger = tracing.finish(&mut layers);

    // Output checks.
    match &decision {
        Ok(ClusterDecision::New { .. }) if p.expect_new => {}
        Ok(ClusterDecision::Existing { cluster, .. })
            if !p.expect_new && Some(*cluster) == own_cluster => {}
        other => failures.push(format!(
            "classification: {other:?}, expected {}",
            if p.expect_new {
                "a new workload".to_string()
            } else {
                format!("cluster {own_cluster:?}")
            }
        )),
    }
    if trace.len() != ctx.sizes.target_events {
        failures.push(format!(
            "parse: {} of {} events read back",
            trace.len(),
            ctx.sizes.target_events
        ));
    }
    let best = &outcome.best;
    if let Err(v) = constraints.check_structural(&best.config) {
        failures.push(format!("best configuration breaks the constraints: {v:?}"));
    }
    match &stored {
        Ok(Some(records)) if records.iter().any(|r| r.config == best.config) => {}
        other => failures.push(format!(
            "autodb: learned configuration not read back ({} record(s))",
            other.as_ref().map_or(0, |r| r.as_ref().map_or(0, Vec::len))
        )),
    }
    if let Err(e) = &flushed {
        failures.push(format!("autodb: flush failed: {e}"));
    }
    failures.extend(check_outcome(&outcome));

    fp.word(matches!(decision, Ok(ClusterDecision::New { .. })) as u64);
    fp.word(windows as u64);
    fp.word(sensitive as u64);
    fp.word(order.len() as u64);
    fingerprint_outcome(&mut fp, &outcome);
    fp.word(validator.simulator_runs());

    let stats = validator.stats();
    layers.insert("iotrace.gen_s".into(), gen_s);
    layers.insert("iotrace.gen_events".into(), gen_events as f64);
    layers.insert("clustering.fit_s".into(), fit_s);
    layers.insert("iotrace.parse_s".into(), parse_s);
    layers.insert("iotrace.parse_events".into(), trace.len() as f64);
    layers.insert("iotrace.window_s".into(), window_s);
    layers.insert("iotrace.windows".into(), windows as f64);
    layers.insert("clustering.classify_s".into(), classify_s);
    layers.insert("pruning.coarse_runs".into(), coarse.probe_count as f64);
    layers.insert("pruning.fine_runs".into(), fine.samples_used as f64);
    layers.insert("pruning.sensitive_params".into(), sensitive as f64);
    layers.insert("autodb.get_s".into(), get_s);
    layers.insert("autodb.flush_s".into(), flush_s);
    let log_bytes = std::fs::metadata(&db_path).map_or(0, |m| m.len());
    layers.insert("autodb.log_bytes".into(), log_bytes as f64);
    write_outcomes(&mut layers, std::slice::from_ref(&outcome), &stats);
    if let Some((ledger, broken)) = ledger {
        failures.extend(broken);
        failures.extend(write_traced_layers(
            &mut layers,
            &ledger,
            &stats,
            pool_before,
            events,
        ));
    }

    let pieces = [
        parse_s, window_s, classify_s, prune_s, tune_s, get_s, flush_s,
    ];
    Unit {
        setup_s,
        pieces: pieces.map(Piece::whole).to_vec(),
        sim_events: stats.simulator_runs * 2 * events as u64,
        ops: pieces.len() as u64 + stats.simulator_runs + stats.speculative_runs,
        failures,
        fingerprint: fp.value(),
        layers,
    }
}

pub fn run_search(ctx: &Ctx, traced: bool) -> Unit {
    let events = ctx.sizes.search_events;
    let iterations = ctx.sizes.search_iterations;
    let reference = presets::intel_750();
    let constraints = Constraints::paper_default();

    // Set-up: the shared validator with its seven validation traces built.
    let (validator, setup_s) = set_up(|| {
        let v = Validator::new(ValidatorOptions {
            trace_events: events,
            seed: ctx.seed,
            ..ValidatorOptions::default()
        });
        for kind in WorkloadKind::STUDIED {
            v.trace_for(kind);
        }
        v
    });
    let gen_s = setup_s[0];

    let mut layers = Values::new();
    let pool_before = pool_stats();

    let tracing = Tracing::start(traced);
    let root = Span::enter(ROOT);
    let tunes = WorkloadKind::STUDIED.map(|kind| {
        let opts = TunerOptions {
            max_iterations: iterations,
            // Larger than the iteration count: convergence never fires,
            // so every category pays the same number of outer steps.
            convergence_window: iterations + 1,
            speculative_batch: ctx.threads,
            non_target: WorkloadKind::STUDIED
                .into_iter()
                .filter(|&w| w != kind)
                .collect(),
            ..TunerOptions::default()
        };
        timed("bench.tuner", || {
            Tuner::new(constraints, &validator, opts).tune(kind, &reference, &[], None)
        })
    });
    drop(root);
    let ledger = tracing.finish(&mut layers);
    let pieces = tunes.iter().map(|(_, s)| Piece::whole(*s)).collect();
    let outcomes = tunes.map(|(outcome, _)| outcome);

    let mut failures = Vec::new();
    let mut fp = Fingerprint::default();
    for outcome in &outcomes {
        if let Err(v) = constraints.check_structural(&outcome.best.config) {
            failures.push(format!(
                "{}: best configuration breaks the constraints: {v:?}",
                outcome.workload
            ));
        }
        if outcome.iterations != iterations {
            failures.push(format!(
                "{}: {} of {iterations} iterations ran",
                outcome.workload, outcome.iterations
            ));
        }
        failures.extend(check_outcome(outcome));
        fingerprint_outcome(&mut fp, outcome);
    }
    fp.word(validator.simulator_runs());

    let stats = validator.stats();
    layers.insert("iotrace.gen_s".into(), gen_s);
    layers.insert(
        "iotrace.gen_events".into(),
        (events * WorkloadKind::STUDIED.len()) as f64,
    );
    write_outcomes(&mut layers, &outcomes, &stats);
    if let Some((ledger, broken)) = ledger {
        failures.extend(broken);
        failures.extend(write_traced_layers(
            &mut layers,
            &ledger,
            &stats,
            pool_before,
            events,
        ));
    }

    Unit {
        setup_s,
        pieces,
        sim_events: stats.simulator_runs * 2 * events as u64,
        ops: outcomes.len() as u64 + stats.simulator_runs + stats.speculative_runs,
        failures,
        fingerprint: fp.value(),
        layers,
    }
}

fn check_outcome(outcome: &TuningOutcome) -> Option<String> {
    let best = &outcome.best;
    let finite = best.grade.is_finite()
        && best.measurement.latency_ns.is_finite()
        && best.measurement.throughput_bps.is_finite();
    (!finite).then(|| format!("{}: the best grade is not finite", outcome.workload))
}

fn fingerprint_outcome(fp: &mut Fingerprint, outcome: &TuningOutcome) {
    let best = &outcome.best;
    fp.float(best.grade);
    fp.float(best.measurement.latency_ns);
    fp.float(best.measurement.throughput_bps);
    fp.float(outcome.reference.latency_ns);
    fp.float(outcome.reference.throughput_bps);
    fp.word(outcome.iterations as u64);
    fp.word(outcome.validations);
    best.config
        .canonical_words()
        .into_iter()
        .for_each(|w| fp.word(w));
}

/// The exact results of the tunes a unit ran: what was learned and what it
/// cost in the paper's unit, charged simulator evaluations.
fn write_outcomes(layers: &mut Values, outcomes: &[TuningOutcome], stats: &ValidatorStats) {
    let n = outcomes.len() as f64;
    let geo_mean = |f: &dyn Fn(&TuningOutcome) -> f64| -> f64 {
        (outcomes.iter().map(|o| f(o).ln()).sum::<f64>() / n).exp()
    };
    layers.insert(
        "outcome.best_grade".into(),
        outcomes.iter().map(|o| o.best.grade).sum::<f64>() / n,
    );
    layers.insert(
        "outcome.latency_speedup".into(),
        geo_mean(&|o| o.best.measurement.latency_speedup(&o.reference)),
    );
    layers.insert(
        "outcome.throughput_speedup".into(),
        geo_mean(&|o| o.best.measurement.throughput_speedup(&o.reference)),
    );
    layers.insert("outcome.simulator_runs".into(), stats.simulator_runs as f64);
    let sum = |f: &dyn Fn(&TuningOutcome) -> u64| outcomes.iter().map(f).sum::<u64>() as f64;
    layers.insert("tuner.iterations".into(), sum(&|o| o.iterations as u64));
    layers.insert(
        "tuner.candidates".into(),
        sum(&|o| {
            o.iteration_records
                .iter()
                .map(|r| r.candidates_considered)
                .sum()
        }),
    );
    layers.insert(
        "mlkit.gpr_fit_s".into(),
        sum(&|o| o.iteration_records.iter().map(|r| r.surrogate_fit_ns).sum()) / 1e9,
    );
    layers.insert(
        "validator.speculative_runs".into(),
        stats.speculative_runs as f64,
    );
    layers.insert(
        "validator.speculative_hits".into(),
        stats.speculative_hits as f64,
    );
    layers.insert(
        "validator.speculative_wasted".into(),
        stats.speculative_wasted as f64,
    );
    layers.insert(
        "validator.speculation_useful_ratio".into(),
        stats.speculative_hits as f64 / stats.speculative_runs.max(1) as f64,
    );
}

const PRUNING_SPANS: [&str; 5] = [
    "bench.pruning",
    "coarse_prune",
    "fine_prune",
    "prune.coarse",
    "prune.fine",
];
const TUNER_SPANS: [&str; 10] = [
    "bench.tuner",
    "tune",
    "tuner.tune",
    "tuner.reference",
    "tuner.init_set",
    "tuner.iteration",
    "tuner.fit_surrogate",
    "tuner.sgd_walk",
    "tuner.speculate",
    "tuner.validate",
];
const VALIDATOR_SPANS: [&str; 2] = ["validator.simulate", "validator.trace_build"];

/// Turns a traced unit's span tree and the program's own counters into the
/// per-layer host times, and returns what the cross-checks between them
/// find: a validator whose misses differ from its charged runs, or a layer
/// order that contradicts the paper's Table 6 (simulation dominates).
fn write_traced_layers(
    layers: &mut Values,
    ledger: &Ledger,
    stats: &ValidatorStats,
    pool_before: PoolStats,
    trace_events: usize,
) -> Vec<String> {
    let mut put = |name: &str, v: f64| {
        layers.insert(name.to_string(), v);
    };
    put("pruning.coarse_s", ledger.total_s("prune.coarse"));
    put("pruning.fine_s", ledger.total_s("prune.fine"));
    let pruning_self_s = ledger.self_s(&PRUNING_SPANS);
    put("pruning.self_s", pruning_self_s);
    put(
        "tuner.init_s",
        ledger.total_s("tuner.reference") + ledger.total_s("tuner.init_set"),
    );
    put("tuner.search_s", ledger.total_s("tuner.iteration"));
    put("tuner.sgd_walk_s", ledger.total_s("tuner.sgd_walk"));
    put("tuner.validate_s", ledger.total_s("tuner.validate"));
    put("tuner.speculate_s", ledger.total_s("tuner.speculate"));
    let tuner_self_s = ledger.self_s(&TUNER_SPANS);
    put("tuner.self_s", tuner_self_s);

    let pool = pool_stats();
    let busy_ns = pool.busy_ns - pool_before.busy_ns;
    let capacity_ns = pool.worker_wall_ns - pool_before.worker_wall_ns;
    put(
        "mlkit.pool_batches",
        (pool.batches - pool_before.batches) as f64,
    );
    put("mlkit.pool_jobs", (pool.jobs - pool_before.jobs) as f64);
    put("mlkit.pool_busy_s", busy_ns as f64 / 1e9);
    put(
        "mlkit.pool_utilization",
        busy_ns as f64 / capacity_ns.max(1) as f64,
    );

    let simulate_s = ledger.total_s("validator.simulate");
    let validations = ledger.durations_ms("validator.simulate");
    put("validator.simulate_s", simulate_s);
    put("validator.self_s", ledger.self_s(&VALIDATOR_SPANS));
    put("validator.validations_timed", validations.len() as f64);
    put(
        "validator.validation_ms_p50",
        percentile(&validations, 50.0),
    );
    put(
        "validator.validation_ms_p95",
        percentile(&validations, 95.0),
    );
    put(
        "validator.trace_build_s",
        ledger.total_s("validator.trace_build"),
    );
    put("validator.cache_hits", stats.cache_hits as f64);
    put("validator.cache_misses", stats.cache_misses as f64);
    put(
        "validator.hit_ratio",
        stats.cache_hits as f64 / (stats.cache_hits + stats.cache_misses).max(1) as f64,
    );

    // Every validation (charged or speculative) replays its trace twice.
    let replays = 2 * validations.len();
    let run_s = ledger.total_s("sim.run");
    put("ssdsim.runs", replays as f64);
    put("ssdsim.events", (replays * trace_events) as f64);
    put("ssdsim.warm_up_s", ledger.total_s("sim.warm_up"));
    put("ssdsim.run_s", run_s);
    put("ssdsim.drain_s", ledger.total_s("sim.drain"));
    put(
        "ssdsim.ns_per_event",
        run_s * 1e9 / (replays * trace_events).max(1) as f64,
    );
    // Simulated activity of the charged evaluations, as the validator
    // aggregates it. It carries no fold-page count; the wait share below
    // shows whether folds ran.
    let sim = &stats.sim;
    put("ssdsim.flash_reads", sim.flash_reads as f64);
    put("ssdsim.flash_programs", sim.flash_programs as f64);
    put("ssdsim.flash_erases", sim.flash_erases as f64);
    put("ssdsim.gc_invocations", sim.gc_invocations as f64);
    write_shares(layers, &sim.bottleneck());

    let mut failures = Vec::new();
    if stats.cache_misses != stats.simulator_runs {
        failures.push(format!(
            "validator: {} cache misses but {} charged runs",
            stats.cache_misses, stats.simulator_runs
        ));
    }
    let gpr_fit_s = layers.get("mlkit.gpr_fit_s").copied().unwrap_or(0.0);
    if simulate_s <= pruning_self_s || simulate_s <= tuner_self_s || simulate_s <= gpr_fit_s {
        failures.push(format!(
            "ledger: simulation ({simulate_s:.3} s) does not dominate pruning \
             ({pruning_self_s:.3} s), the tuner ({tuner_self_s:.3} s) and GPR fits \
             ({gpr_fit_s:.3} s)"
        ));
    }
    failures
}
