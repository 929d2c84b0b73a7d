//! Shared harness for regenerating every table and figure of the AutoBlox
//! paper. Each `src/bin/*` binary reproduces one experiment; this library
//! provides the common scaffolding: experiment scaling, tuned-configuration
//! production, cross-workload evaluation matrices, and table printing.

#![warn(missing_docs)]

use autoblox::constraints::Constraints;
use autoblox::tuner::{Tuner, TunerOptions, TuningOutcome};
use autoblox::validator::{Validator, ValidatorOptions};
use iotrace::gen::WorkloadKind;
use ssdsim::config::SsdConfig;

/// Experiment scale, selected via the `AUTOBLOX_SCALE` environment variable
/// (`quick`, `standard` (default), or `full`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small traces and few iterations: smoke-test an experiment in seconds.
    Quick,
    /// Default: minutes per experiment, stable trends.
    Standard,
    /// Larger traces and search budgets: closest to the paper's runs.
    Full,
}

impl Scale {
    /// Reads the scale from the environment.
    pub fn from_env() -> Self {
        match std::env::var("AUTOBLOX_SCALE").as_deref() {
            Ok("quick") => Scale::Quick,
            Ok("full") => Scale::Full,
            _ => Scale::Standard,
        }
    }

    /// Events per validation trace. Long enough that the trace's data
    /// footprint exercises the DRAM cache parameters (a 3k-event trace
    /// moves ~25 MB and cannot differentiate multi-hundred-MB caches).
    pub fn trace_events(self) -> usize {
        match self {
            Scale::Quick => 2_000,
            Scale::Standard => 20_000,
            Scale::Full => 60_000,
        }
    }

    /// Outer tuning iterations.
    pub fn max_iterations(self) -> usize {
        match self {
            Scale::Quick => 8,
            Scale::Standard => 30,
            Scale::Full => 89,
        }
    }

    /// Samples for regression-based stages.
    pub fn samples(self) -> usize {
        match self {
            Scale::Quick => 24,
            Scale::Standard => 64,
            Scale::Full => 128,
        }
    }
}

/// A validator configured for the chosen scale.
pub fn validator(scale: Scale) -> Validator {
    Validator::new(ValidatorOptions {
        trace_events: scale.trace_events(),
        ..Default::default()
    })
}

/// Standard tuner options for the chosen scale: the seven studied clusters
/// act as mutual non-targets, as in the paper's Table 1 setup.
pub fn tuner_options(scale: Scale) -> TunerOptions {
    TunerOptions {
        max_iterations: scale.max_iterations(),
        non_target: WorkloadKind::STUDIED.to_vec(),
        ..TunerOptions::default()
    }
}

/// Tunes one configuration per target workload.
///
/// The power budget is tightened per target to 1.25x the reference
/// configuration's measured power on that workload: the paper's power
/// constraint is what keeps learned configurations from buying latency
/// with unbounded silicon, which is how Figure 7's "at most 5% energy
/// increase" outcome arises.
pub fn tune_targets(
    targets: &[WorkloadKind],
    reference: &SsdConfig,
    constraints: Constraints,
    validator: &Validator,
    opts: &TunerOptions,
) -> Vec<TuningOutcome> {
    // One tuning run per target, fanned out on the worker pool
    // (`AUTOBLOX_THREADS`). Outcome configurations and grades are
    // deterministic regardless of thread count — measurements are memoized
    // pure functions of (config, workload) — but the per-outcome
    // `validations` counters can include runs from concurrently tuning
    // targets sharing the validator.
    autoblox::parallel::parallel_map(targets.to_vec(), |t| {
        eprintln!("  tuning for {t} ...");
        let baseline_power = validator.evaluate(reference, t).power_w;
        let per_target = Constraints {
            power_budget_w: constraints.power_budget_w.min(baseline_power * 1.25),
            ..constraints
        };
        let tuner = Tuner::new(per_target, validator, opts.clone());
        tuner.tune(t, reference, &[], None)
    })
}

/// Latency/throughput speedups of `config` on `workload` relative to the
/// same workload on `reference`.
pub fn speedup_cell(
    config: &SsdConfig,
    reference: &SsdConfig,
    workload: WorkloadKind,
    validator: &Validator,
) -> (f64, f64) {
    let m = validator.evaluate(config, workload);
    let r = validator.evaluate(reference, workload);
    (m.latency_speedup(&r), m.throughput_speedup(&r))
}

/// Geometric mean over `(latency, throughput)` speedup cells.
pub fn geo_mean_cells(cells: &[(f64, f64)]) -> (f64, f64) {
    let lats: Vec<f64> = cells.iter().map(|c| c.0).collect();
    let tps: Vec<f64> = cells.iter().map(|c| c.1).collect();
    (
        autoblox::metrics::geometric_mean(&lats),
        autoblox::metrics::geometric_mean(&tps),
    )
}

/// Prints a markdown-style table.
pub fn print_table(title: &str, headers: &[String], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect();
        format!("| {} |", padded.join(" | "))
    };
    println!("{}", fmt_row(headers));
    println!(
        "|{}|",
        widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("|")
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Formats a latency/throughput cell the way the paper's tables do.
pub fn fmt_cell((lat, tp): (f64, f64)) -> String {
    format!("{lat:.2}/{tp:.2}")
}

/// Builds and prints a Table-1-style cross matrix: one learned configuration
/// per target (columns), evaluated on every workload (rows), with the
/// non-target geometric-mean summary row. Returns the outcomes for reuse.
pub fn cross_matrix_experiment(
    title: &str,
    reference: &SsdConfig,
    constraints: Constraints,
    validator: &Validator,
    opts: &TunerOptions,
    targets: &[WorkloadKind],
    rows_workloads: &[WorkloadKind],
) -> Vec<TuningOutcome> {
    let outcomes = tune_targets(targets, reference, constraints, validator, opts);
    print_cross_matrix(
        title,
        reference,
        validator,
        targets,
        rows_workloads,
        &outcomes,
    );
    outcomes
}

/// Prints the cross matrix for already-tuned outcomes.
pub fn print_cross_matrix(
    title: &str,
    reference: &SsdConfig,
    validator: &Validator,
    targets: &[WorkloadKind],
    rows_workloads: &[WorkloadKind],
    outcomes: &[TuningOutcome],
) {
    // Warm the validator cache for every (configuration, workload) cell in
    // parallel; the sequential table assembly below then only reads cache
    // hits, so cell values match a sequential run exactly.
    let mut cells: Vec<(&SsdConfig, WorkloadKind)> = Vec::new();
    for &w in rows_workloads {
        cells.push((reference, w));
        cells.extend(outcomes.iter().map(|o| (&o.best.config, w)));
    }
    autoblox::parallel::parallel_map(cells, |(cfg, w)| validator.evaluate(cfg, w));

    let mut headers = vec!["workload \\ target".to_string()];
    headers.extend(targets.iter().map(|t| t.name().to_string()));
    let mut rows = Vec::new();
    let mut non_target_cells: Vec<Vec<(f64, f64)>> = vec![Vec::new(); targets.len()];
    for &w in rows_workloads {
        let mut row = vec![w.name().to_string()];
        for (ti, outcome) in outcomes.iter().enumerate() {
            let cell = speedup_cell(&outcome.best.config, reference, w, validator);
            let is_target = targets[ti] == w;
            row.push(if is_target {
                format!("*{}*", fmt_cell(cell))
            } else {
                non_target_cells[ti].push(cell);
                fmt_cell(cell)
            });
        }
        rows.push(row);
    }
    let mut geo_row = vec!["geo-mean (non-target)".to_string()];
    for cells in &non_target_cells {
        geo_row.push(fmt_cell(geo_mean_cells(cells)));
    }
    rows.push(geo_row);
    print_table(title, &headers, &rows);
    println!("\ncells are latency/throughput speedups vs the reference; *bold* = target workload");
}

/// Prints Table 5: the critical parameters of each learned configuration
/// next to the reference values.
pub fn print_critical_parameters(
    reference: &SsdConfig,
    targets: &[WorkloadKind],
    outcomes: &[TuningOutcome],
) {
    type ParamRow = (&'static str, fn(&SsdConfig) -> String);
    let param_rows: [ParamRow; 8] = [
        ("CMTCapacity (MiB)", |c| c.cmt_capacity_mb.to_string()),
        ("DataCacheSize (MiB)", |c| c.data_cache_mb.to_string()),
        ("FlashChannelCount", |c| c.channel_count.to_string()),
        ("ChipNoPerChannel", |c| c.chips_per_channel.to_string()),
        ("DieNoPerChip", |c| c.dies_per_chip.to_string()),
        ("PlaneNoPerDie", |c| c.planes_per_die.to_string()),
        ("BlockNoPerPlane", |c| c.blocks_per_plane.to_string()),
        ("PageNoPerBlock", |c| c.pages_per_block.to_string()),
    ];
    let mut headers = vec!["parameter".to_string(), "reference".to_string()];
    headers.extend(targets.iter().map(|t| t.name().to_string()));
    let rows: Vec<Vec<String>> = param_rows
        .iter()
        .map(|(name, get)| {
            let mut row = vec![name.to_string(), get(reference)];
            row.extend(outcomes.iter().map(|o| get(&o.best.config)));
            row
        })
        .collect();
    print_table(
        "Table 5 — critical parameters of the learned configurations",
        &headers,
        &rows,
    );
}
