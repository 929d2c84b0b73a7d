//! `bench_pipeline`: the repository's end-to-end benchmark and per-layer
//! ledger. See `README.md` beside `Cargo.toml` for the metric glossary, why
//! each workload exists, and how the numbers are meant to be read.
//!
//! ```text
//! bench_pipeline --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                [--check] [--out <file>]
//! bench_pipeline --all [--seed <n>] [--seconds <s>] [--check] [--out <file>]
//! ```
//!
//! One run draws a few input sets from `--seed` and repeats the workload's
//! unit (a fresh set-up, then the measured section) on them in turn until
//! `--seconds` are spent. It reports, averaged over the input sets, the best
//! time of every piece of the unit, checks the outputs, and prints one JSON
//! object as the last line of its standard output. `--trace 0` measures the
//! end-to-end metrics with telemetry and span tracing off; `--trace 1`
//! alternates untraced and traced units and prints the per-layer metrics.

mod ledger;
mod metrics;
mod stats;
mod sweep;
mod tuning;
mod unit;

use metrics::{Better, Domain, MetricDef, Values};
use stats::{median, median_min_max};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use unit::{Ctx, Piece, Sizes, Unit};

/// A workload and how many input sets one run draws for it. The tuner's
/// trajectory, and with it a tune's cost, depends on its inputs, so the
/// pipelines average over four. `search_many_short` already averages over
/// seven categories and the sweep's cost barely depends on the seed; both
/// spend the whole budget repeating one input set.
const WORKLOADS: [(&str, u64); 4] = [
    ("tune_read_homog", 4),
    ("tune_write_hybrid", 4),
    ("search_many_short", 1),
    ("sim_sweep", 1),
];

/// Ring capacity for the traced units: seven 89-iteration tunes close ~15k
/// spans each, above the program's 64k default.
const RING_CAPACITY: usize = 1 << 21;

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    check: bool,
    out: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        all: false,
        seed: 7,
        seconds: 0.0,
        trace: false,
        check: false,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--all" => args.all = true,
            "--check" => args.check = true,
            "--workload" => args.workload = Some(value()?),
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=600.0).contains(&args.seconds) {
                    return Err("--seconds must be within 0..=600".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    match (&args.workload, args.all) {
        (Some(w), false) if WORKLOADS.iter().any(|(name, _)| name == w) => Ok(args),
        (Some(w), false) => Err(format!("unknown workload {w:?}; one of {WORKLOADS:?}")),
        (None, true) => Ok(args),
        _ => Err("give either --workload <name> or --all".into()),
    }
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// `VmHWM` of this process in MiB: the peak resident set, every unit of the
/// run included.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// A scratch directory beside the executable (inside the checkout's build
/// directory), private to this process and removed when the run ends.
fn scratch_dir() -> std::io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let base = exe.parent().unwrap_or(Path::new("."));
    let dir = base
        .join("bench_pipeline_tmp")
        .join(std::process::id().to_string());
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

fn run_unit(workload: &str, ctx: &Ctx, traced: bool) -> Unit {
    match workload {
        "tune_read_homog" => tuning::run_pipeline(tuning::TUNE_READ_HOMOG, ctx, traced),
        "tune_write_hybrid" => tuning::run_pipeline(tuning::TUNE_WRITE_HYBRID, ctx, traced),
        "search_many_short" => tuning::run_search(ctx, traced),
        "sim_sweep" => sweep::run_unit(ctx, traced),
        other => unreachable!("parse_args admits only WORKLOADS, got {other}"),
    }
}

/// The seed of input set `set`: the run's own seed first, then a SplitMix64
/// walk from it, so one `--seed` always names the same inputs.
fn set_seed(seed: u64, set: u64) -> u64 {
    if set == 0 {
        return seed;
    }
    let mut z = seed.wrapping_add(set.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Every unit a run made on one input set. They did identical work.
#[derive(Default)]
struct InputSet {
    untraced: Vec<Unit>,
    traced: Vec<Unit>,
}

impl InputSet {
    fn units(&self) -> impl Iterator<Item = &Unit> {
        self.untraced.iter().chain(&self.traced)
    }
}

/// Visits the input sets in turn, one unit each (and its traced twin on a
/// traced run, so both see the same host conditions), until every set has
/// been measured once and the budget is spent.
fn measure(workload: &str, input_sets: u64, ctx: &Ctx, args: &Args) -> Vec<InputSet> {
    let mut sets: Vec<InputSet> = (0..input_sets).map(|_| InputSet::default()).collect();
    let start = Instant::now();
    let mut rounds = Vec::new();
    for set in (0..sets.len()).cycle() {
        let round = Instant::now();
        let ctx = Ctx {
            seed: set_seed(args.seed, set as u64),
            ..ctx.clone()
        };
        sets[set].untraced.push(run_unit(workload, &ctx, false));
        if args.trace {
            sets[set].traced.push(run_unit(workload, &ctx, true));
        }
        rounds.push(round.elapsed().as_secs_f64());
        // Start another round only if at least half of it fits the budget.
        let spent = start.elapsed().as_secs_f64() + 0.5 * median(&rounds);
        if rounds.len() >= sets.len() && spent > args.seconds {
            break;
        }
    }
    sets
}

/// The measured section's host seconds if every piece ran as fast as its
/// best repeat: the sum over pieces of the minimum over `units`.
///
/// The sandbox's CPU speed wanders by tens of percent over seconds, and that
/// noise only ever adds time, so a piece's minimum over repeats of identical
/// work is the statistic that repeats from run to run (README, "Noise").
fn best_sum(units: &[Unit], of: impl Fn(&Piece) -> f64) -> f64 {
    let pieces = units.first().map_or(0, |u| u.pieces.len());
    (0..pieces)
        .map(|i| Better::Lower.best(units.iter().map(|u| of(&u.pieces[i]))))
        .sum()
}

fn mean_over_sets(sets: &[InputSet], of: impl Fn(&InputSet) -> f64) -> f64 {
    sets.iter().map(of).sum::<f64>() / sets.len() as f64
}

/// What a user of the system sees on a quiet machine: per input set the
/// best of the untraced repeats, averaged over the sets.
fn end_to_end_values(sets: &[InputSet]) -> Values {
    Values::from([
        (
            "wall_s".into(),
            mean_over_sets(sets, |s| best_sum(&s.untraced, |p| p.wall_s)),
        ),
        (
            "setup_s".into(),
            mean_over_sets(sets, |s| {
                Better::Lower.best(s.units().flat_map(|u| u.setup_s.iter().copied()))
            }),
        ),
        (
            "sim_events_per_s".into(),
            mean_over_sets(sets, |s| {
                s.untraced[0].sim_events as f64 / best_sum(&s.untraced, |p| p.sim_s)
            }),
        ),
        ("peak_rss_mib".into(), peak_rss_mib().unwrap_or(0.0)),
    ])
}

/// Per-layer values. A host time is aggregated like the end-to-end times:
/// best over an input set's traced units, averaged over the sets. Counts
/// and simulated statistics are those of the first set, whose inputs come
/// from `--seed` itself (every unit of a set agrees on them: the
/// fingerprint check).
fn per_layer_values(sets: &[InputSet], defs: &[MetricDef]) -> Values {
    let mut values = Values::new();
    for d in defs {
        let of = |u: &Unit| u.layers.get(&d.name).copied().unwrap_or(0.0);
        let v = match d.domain {
            Domain::Host => mean_over_sets(sets, |s| d.better.best(s.traced.iter().map(of))),
            Domain::Simulated | Domain::Count => sets[0].traced.first().map_or(0.0, of),
        };
        values.insert(d.name.clone(), v);
    }
    let untraced = mean_over_sets(sets, |s| best_sum(&s.untraced, |p| p.wall_s));
    let traced = mean_over_sets(sets, |s| best_sum(&s.traced, |p| p.wall_s));
    values.insert(
        "telemetry.trace_overhead_pct".into(),
        (traced - untraced) / untraced * 100.0,
    );
    values
}

fn print_table(header: &str, sets: &[InputSet], defs: &[MetricDef], values: &Values) {
    eprintln!("== {header}");
    let walls: Vec<f64> = sets
        .iter()
        .flat_map(|s| &s.untraced)
        .map(|u| u.pieces.iter().map(|p| p.wall_s).sum())
        .collect();
    for d in defs {
        let value = values.get(&d.name).copied().unwrap_or(0.0);
        let note = match (d.name.as_str(), median_min_max(&walls)) {
            ("wall_s", Some((mid, lo, hi))) => format!(
                "  [whole units: min {lo:.6}, median {mid:.6}, max {hi:.6}, n={}]",
                walls.len()
            ),
            _ => String::new(),
        };
        eprintln!(
            "{:<42} {:>18.6} {:<6} {:<9} {:<6}{note}",
            d.name,
            value,
            d.unit,
            d.domain.label(),
            d.better.label()
        );
    }
}

fn run_workload(workload: &str, input_sets: u64, args: &Args) -> Result<bool, String> {
    let threads = if workload == "sim_sweep" {
        1
    } else {
        host_cpus().min(2)
    };
    mlkit::parallel::set_max_threads(threads);
    telemetry::span::set_ring_capacity(RING_CAPACITY);
    let ctx = Ctx {
        seed: args.seed,
        sizes: if args.check {
            Sizes::CHECK
        } else {
            Sizes::FULL
        },
        threads,
        dir: scratch_dir().map_err(|e| format!("scratch directory: {e}"))?,
    };
    let sets = measure(workload, input_sets, &ctx, args);
    let _ = std::fs::remove_dir_all(&ctx.dir);
    // The shared parent goes too once the last concurrent run has left it.
    let _ = ctx.dir.parent().map(std::fs::remove_dir);

    let units = || sets.iter().flat_map(InputSet::units);
    let mut failures: Vec<&str> = units()
        .flat_map(|u| u.failures.iter().map(String::as_str))
        .collect();
    for set in &sets {
        let fingerprint = set.untraced[0].fingerprint;
        if set.units().any(|u| u.fingerprint != fingerprint) {
            failures.push("fingerprint differs between two units on the same inputs");
        }
    }
    let attempted: u64 = units().map(|u| u.ops).sum();

    let (defs, values) = if args.trace {
        let defs = metrics::per_layer();
        let values = per_layer_values(&sets, &defs);
        (defs, values)
    } else {
        (metrics::end_to_end(), end_to_end_values(&sets))
    };
    let header = format!(
        "{workload}: seed {}, {} input set(s), {} untraced + {} traced unit(s), \
         {threads} thread(s) on {} cpu(s){}",
        args.seed,
        sets.len(),
        sets.iter().map(|s| s.untraced.len()).sum::<usize>(),
        sets.iter().map(|s| s.traced.len()).sum::<usize>(),
        host_cpus(),
        if args.check { ", --check sizes" } else { "" }
    );
    print_table(&header, &sets, &defs, &values);
    eprintln!("fingerprint {:016x}", sets[0].untraced[0].fingerprint);
    for f in &failures {
        eprintln!("FAILED: {f}");
    }
    eprintln!(
        "verdict: {} ({attempted} operation(s), {} failed)",
        if failures.is_empty() { "ok" } else { "FAILED" },
        failures.len()
    );

    let correct = failures.is_empty();
    let failed = failures.len() as u64;
    let line = metrics::result_line(correct, attempted, failed, &defs, &values)?;
    if let Some(out) = &args.out {
        std::fs::write(out, format!("{line}\n")).map_err(|e| format!("{}: {e}", out.display()))?;
    }
    println!("{line}");
    Ok(correct)
}

/// `--all`: every workload, untraced then traced, each in a child process of
/// its own (so peak memory is per workload and no run warms the next). The
/// parent only waits while a child is being timed.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current executable: {e}"))?;
    let mut all_correct = true;
    let mut results = Vec::new();
    for (workload, _) in WORKLOADS {
        for trace in ["0", "1"] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit());
            if args.check {
                cmd.arg("--check");
            }
            let child = cmd.output().map_err(|e| format!("{workload}: {e}"))?;
            let stdout = String::from_utf8_lossy(&child.stdout);
            let line = stdout.lines().last().unwrap_or_default();
            let doc: serde_json::Value = serde_json::from_str(line)
                .map_err(|e| format!("{workload} --trace {trace}: no result line: {e}"))?;
            all_correct &= child.status.success() && doc["correct"].as_bool() == Some(true);
            results.push(format!(
                "{{\"workload\": \"{workload}\", \"trace\": {trace}, \"result\": {line}}}"
            ));
        }
    }
    let doc = format!("[\n{}\n]", results.join(",\n"));
    if let Some(out) = &args.out {
        std::fs::write(out, format!("{doc}\n")).map_err(|e| format!("{}: {e}", out.display()))?;
    }
    println!("{doc}");
    Ok(all_correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match &args.workload {
        Some(workload) => {
            let (_, input_sets) = WORKLOADS
                .iter()
                .find(|(name, _)| name == workload)
                .expect("parse_args admits only WORKLOADS");
            // The smoke run keeps the code path and measures one input set.
            run_workload(workload, if args.check { 1 } else { *input_sets }, &args)
        }
        None => run_all(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(pieces: &[(f64, f64)]) -> Unit {
        Unit {
            setup_s: vec![],
            pieces: pieces
                .iter()
                .map(|&(wall_s, sim_s)| Piece { wall_s, sim_s })
                .collect(),
            sim_events: 0,
            ops: 0,
            failures: vec![],
            fingerprint: 0,
            layers: Values::new(),
        }
    }

    #[test]
    fn best_sum_takes_each_piece_from_its_fastest_repeat() {
        // Three repeats of a two-piece unit; a slow phase of the host hits a
        // different piece each time.
        let units = [
            unit(&[(1.0, 0.5), (9.0, 4.0)]),
            unit(&[(3.0, 2.0), (2.0, 1.5)]),
            unit(&[(1.5, 0.4), (2.5, 1.0)]),
        ];
        assert_eq!(best_sum(&units, |p| p.wall_s), 1.0 + 2.0);
        assert_eq!(best_sum(&units, |p| p.sim_s), 0.4 + 1.0);
        assert_eq!(best_sum(&[], |p| p.wall_s), 0.0);
    }

    #[test]
    fn input_set_seeds_start_at_the_run_seed_and_do_not_collide() {
        assert_eq!(set_seed(7, 0), 7);
        let seeds: Vec<u64> = (0..4)
            .flat_map(|s| (0..4).map(move |k| set_seed(s, k)))
            .collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len());
        assert_eq!(set_seed(7, 3), set_seed(7, 3));
    }

    #[test]
    fn arguments_follow_the_driver_contract() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload sim_sweep --seed 9 --seconds 30 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("sim_sweep"));
        assert_eq!((a.seed, a.seconds, a.trace), (9, 30.0, true));
        assert!(parse_args(&argv("--workload nope --seed 1")).is_err());
        assert!(parse_args(&argv("--workload sim_sweep --trace 2")).is_err());
        assert!(parse_args(&argv("--workload sim_sweep --all")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
        assert!(parse_args(&argv("--all --check")).unwrap().check);
    }
}
