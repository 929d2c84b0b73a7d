//! `autoblox` — command-line front end for the framework.
//!
//! The command list, every flag and the exit codes are in [`usage_text`]
//! (`autoblox` with no arguments prints it); a test keeps it in step with
//! the commands `main` dispatches.
//!
//! `explain` is the single-report view: from one `--journal` run journal
//! it renders the pipeline phases, the device's bottleneck shares and the
//! surrogate's calibration record (±1σ/±2σ coverage, RMSE, NLPD) and
//! per-iteration explore-vs-exploit decision provenance.
//!
//! A `tune`/`whatif` invocation with `--db` keeps every measurement it
//! paid for in that store — running the same command again replays the
//! run instead of re-simulating it, so an interrupted run is resumed by
//! starting it again.
//!
//! Trace files are auto-detected by extension when the format argument is
//! omitted (`.csv`, `.blk`, `.msr`).
//!
//! Output discipline: machine-readable results (tuned configurations,
//! cluster decisions, simulator reports, explanations) go to **stdout**;
//! progress and human-oriented commentary go to **stderr**, so pipelines
//! can consume the JSON without scraping.
//!
//! Exit codes: `0` success, `1` runtime failure, `2` usage error (missing
//! operands, unknown flags, bad flag values), a malformed input file
//! (unreadable/unparseable trace, config, run journal or AutoDB store) or
//! constraints no search can start from.

use autoblox::clustering::{ClusterDecision, WorkloadClusterer};
use autoblox::constraints::Constraints;
use autoblox::journal::Journal;
use autoblox::params::ParamSpace;
use autoblox::telemetry::RunReport;
use autoblox::tuner::{Tuner, TunerOptions};
use autoblox::validator::{Validator, ValidatorOptions};
use autoblox::whatif::{what_if, WhatIfGoal, WhatIfOptions};
use iotrace::gen::WorkloadKind;
use iotrace::parse::{parse_blkparse, parse_csv, parse_msr, write_csv};
use iotrace::stats::TraceProfile;
use iotrace::window::WindowOptions;
use iotrace::Trace;
use ssdsim::config::{presets, DeviceFamily, FlashTechnology, Interface, SsdConfig};
use ssdsim::Simulator;
use std::fs::File;
use std::io::BufReader;
use std::process::ExitCode;
use std::sync::Arc;

/// A classified CLI failure so `main` can pick the right exit code:
/// usage errors and malformed user input exit `2`, anything else `1`.
enum CliError {
    /// The command line itself is wrong: missing operands, an unknown
    /// flag value, and so on.
    Usage(String),
    /// A user-supplied input file (trace, config JSON, run journal or
    /// AutoDB store) could not be read or failed validation, or the
    /// constraints or goal of `tune`/`whatif` admit no search.
    Input(String),
    /// Any other runtime failure.
    Other(String),
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Other(msg)
    }
}

// The static one-liners in this file ("tune needs <workload> [flags]", …)
// are all usage messages, so the &str conversion classifies them as such —
// this is what routes them to exit 2 instead of the generic failure path.
impl From<&str> for CliError {
    fn from(msg: &str) -> Self {
        CliError::Usage(msg.to_string())
    }
}

fn usage() -> ExitCode {
    eprintln!("{}", usage_text());
    ExitCode::from(2)
}

fn usage_text() -> String {
    format!(
        "usage: autoblox <command> ...\n\
         \n\
         commands:\n\
         \x20 generate <workload> <events> <seed> [out.csv]   synthesize a trace\n\
         \x20 profile  <trace-file> [csv|blkparse|msr]        print workload statistics\n\
         \x20 classify <trace-file> [csv|blkparse|msr]        match against the studied clusters\n\
         \x20 simulate <workload|trace-file> [config.json]    run the SSD simulator\n\
         \x20 tune     <workload> [--iterations N] [--events N] [--capacity GIB]\n\
         \x20          [--interface nvme|sata] [--flash slc|mlc|tlc|qlc] [--power W]\n\
         \x20          [--family homogeneous|hybrid]\n\
         \x20          [--journal out.jsonl] [--db store.db]\n\
         \x20          (--db keeps every measurement in the store: the same\n\
         \x20           command run again replays instead of simulating, which\n\
         \x20           is how an interrupted run resumes)\n\
         \x20 whatif   <workload> --goal latency|throughput --factor F\n\
         \x20          [--events N] [--capacity ...] (constraint flags as for tune)\n\
         \x20          [--journal out.jsonl] [--db store.db]\n\
         \x20 explain  <journal.jsonl> [--json]               one run explained: phases, device\n\
         \x20                                                 bottleneck shares, surrogate\n\
         \x20                                                 calibration, decision provenance\n\
         \x20 trace    export --chrome <journal.jsonl> <out-file>\n\
         \x20                                                 convert a run journal to Perfetto\n\
         \n\
         exit codes:\n\
         \x20 0  success\n\
         \x20 1  runtime failure\n\
         \x20 2  usage error (missing operands, unknown flags, bad flag values),\n\
         \x20    a malformed/unreadable input file (a store whose last line\n\
         \x20    was torn by a crash is repaired) or constraints no search\n\
         \x20    can start from\n\
         \n\
         workloads: {}",
        WorkloadKind::STUDIED
            .iter()
            .chain(WorkloadKind::NEW.iter())
            .map(|k| k.name())
            .collect::<Vec<_>>()
            .join(", ")
    )
}

fn load_trace(path: &str, format: Option<&str>) -> Result<Trace, String> {
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let reader = BufReader::new(file);
    let fmt = format.map(str::to_string).unwrap_or_else(|| {
        if path.ends_with(".msr") {
            "msr".into()
        } else if path.ends_with(".blk") {
            "blkparse".into()
        } else {
            "csv".into()
        }
    });
    let result = match fmt.as_str() {
        "csv" => parse_csv(path, reader),
        "blkparse" => parse_blkparse(path, reader),
        "msr" => parse_msr(path, reader),
        other => return Err(format!("unknown trace format {other:?}")),
    };
    result.map_err(|e| format!("failed to parse {path}: {e}"))
}

fn parse_workload(name: &str) -> Result<WorkloadKind, String> {
    name.parse()
        .map_err(|_| format!("unknown workload {name:?}; see `autoblox` for the list"))
}

fn cmd_generate(args: &[String]) -> Result<(), CliError> {
    let [workload, events, seed, rest @ ..] = args else {
        return Err("generate needs <workload> <events> <seed> [out.csv]".into());
    };
    let kind = parse_workload(workload).map_err(CliError::Usage)?;
    let events: usize = events
        .parse()
        .map_err(|e| CliError::Usage(format!("bad event count: {e}")))?;
    let seed: u64 = seed
        .parse()
        .map_err(|e| CliError::Usage(format!("bad seed: {e}")))?;
    let trace = kind.spec().generate(events, seed);
    match rest.first() {
        Some(path) => {
            let f = File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
            write_csv(&trace, f).map_err(|e| format!("write failed: {e}"))?;
            eprintln!("wrote {} events to {path}", trace.len());
        }
        None => {
            write_csv(&trace, std::io::stdout()).map_err(|e| format!("write failed: {e}"))?;
        }
    }
    Ok(())
}

fn cmd_profile(args: &[String]) -> Result<(), CliError> {
    let [path, rest @ ..] = args else {
        return Err("profile needs <trace-file> [format]".into());
    };
    let trace = load_trace(path, rest.first().map(String::as_str)).map_err(CliError::Input)?;
    println!("{}", TraceProfile::of(&trace));
    Ok(())
}

fn cmd_classify(args: &[String]) -> Result<(), CliError> {
    let [path, rest @ ..] = args else {
        return Err("classify needs <trace-file> [format]".into());
    };
    let trace = load_trace(path, rest.first().map(String::as_str)).map_err(CliError::Input)?;
    eprintln!("training the clustering front end on the studied categories ...");
    let window = WindowOptions { window_len: 1_000 };
    let train: Vec<Trace> = WorkloadKind::STUDIED
        .iter()
        .map(|k| k.spec().generate(6_000, 42))
        .collect();
    let model = WorkloadClusterer::fit(&train, WorkloadKind::STUDIED.len(), window, 7)
        .map_err(|e| format!("clustering failed: {e}"))?;
    // Identify which studied category owns each cluster id.
    let mut owners = vec![String::from("?"); model.k()];
    for (kind, t) in WorkloadKind::STUDIED.iter().zip(&train) {
        if let Ok(ClusterDecision::Existing { cluster, .. }) = model.classify(t) {
            owners[cluster] = kind.name().to_string();
        }
    }
    // Machine-readable decision to stdout; commentary to stderr.
    let decision = match model.classify(&trace).map_err(|e| e.to_string())? {
        ClusterDecision::Existing { cluster, distance } => {
            eprintln!(
                "trace matches cluster {cluster} ({}) at distance {distance:.2} (threshold {:.2})",
                owners[cluster],
                model.threshold()
            );
            serde_json::json!({
                "decision": "existing",
                "cluster": cluster as u64,
                "owner": owners[cluster].clone(),
                "distance": distance,
                "threshold": model.threshold(),
            })
        }
        ClusterDecision::New { nearest, distance } => {
            eprintln!(
                "trace is a NEW workload: nearest cluster {nearest} ({}) at distance {distance:.2} > threshold {:.2}",
                owners[nearest],
                model.threshold()
            );
            serde_json::json!({
                "decision": "new",
                "nearest": nearest as u64,
                "owner": owners[nearest].clone(),
                "distance": distance,
                "threshold": model.threshold(),
            })
        }
    };
    println!(
        "{}",
        serde_json::to_string_pretty(&decision).map_err(|e| e.to_string())?
    );
    Ok(())
}

fn cmd_simulate(args: &[String]) -> Result<(), CliError> {
    let [source, rest @ ..] = args else {
        return Err("simulate needs <workload|trace-file> [config.json]".into());
    };
    let trace = match parse_workload(source) {
        Ok(kind) => kind.spec().generate(5_000, 0xB10C5),
        Err(_) => load_trace(source, None).map_err(CliError::Input)?,
    };
    let cfg: SsdConfig = match rest.first() {
        Some(path) => {
            let f = File::open(path)
                .map_err(|e| CliError::Input(format!("cannot open {path}: {e}")))?;
            serde_json::from_reader(f)
                .map_err(|e| CliError::Input(format!("bad config JSON in {path}: {e}")))?
        }
        None => presets::intel_750(),
    };
    cfg.validate().map_err(|e| CliError::Input(e.to_string()))?;
    let mut sim = Simulator::new(cfg);
    sim.warm_up(0.5);
    let report = sim.run(&trace);
    println!(
        "{}",
        serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?
    );
    Ok(())
}

fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, CliError>
where
    T::Err: std::fmt::Display,
{
    if let Some(pos) = args.iter().position(|a| a == flag) {
        let value = args
            .get(pos + 1)
            .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))?;
        return value
            .parse()
            .map(Some)
            .map_err(|e| CliError::Usage(format!("bad value for {flag}: {e}")));
    }
    Ok(None)
}

/// What a command was given: positional operands and the flags named, in
/// command-line order (a valued flag's value is read by [`parse_flag`]).
struct ReaderArgs<'a> {
    positional: Vec<&'a str>,
    flags: Vec<&'a str>,
}

impl<'a> ReaderArgs<'a> {
    /// The one flag parser of every command that takes flags. `switches`
    /// take no value, `valued` flags take exactly one and may repeat; any
    /// other `--flag` or a missing value is a usage error, so a mistyped
    /// flag can never be silently ignored, nor a stale flag silently start
    /// a different run.
    fn parse(
        command: &str,
        args: &'a [String],
        switches: &[&str],
        valued: &[&str],
    ) -> Result<Self, CliError> {
        let mut parsed = ReaderArgs {
            positional: Vec::new(),
            flags: Vec::new(),
        };
        let mut it = args.iter().map(String::as_str);
        while let Some(arg) = it.next() {
            if switches.contains(&arg) {
                parsed.flags.push(arg);
            } else if valued.contains(&arg) {
                it.next()
                    .ok_or_else(|| CliError::Usage(format!("{arg} needs a value")))?;
                parsed.flags.push(arg);
            } else if arg.starts_with("--") {
                return Err(CliError::Usage(format!("unknown {command} flag {arg:?}")));
            } else {
                parsed.positional.push(arg);
            }
        }
        Ok(parsed)
    }

    fn has(&self, flag: &str) -> bool {
        self.flags.contains(&flag)
    }
}

/// Opens the `--journal <out.jsonl>` of a writer command, if given: arms
/// telemetry collection (clearing prior state so the journal covers
/// exactly this command) and starts the journal.
fn open_journal(args: &[String]) -> Result<Option<Journal>, CliError> {
    let Some(path) = parse_flag::<String>(args, "--journal")? else {
        return Ok(None);
    };
    autoblox::telemetry::set_enabled(true);
    autoblox::parallel::reset_pool_stats();
    autoblox::telemetry::global().clear();
    let journal = Journal::create(&path).map_err(CliError::Other)?;
    eprintln!("streaming run journal to {path}");
    Ok(Some(journal))
}

fn cmd_explain(args: &[String]) -> Result<(), CliError> {
    let parsed = ReaderArgs::parse("explain", args, &["--json"], &[])?;
    let [path] = parsed.positional.as_slice() else {
        return Err("explain needs <journal.jsonl> [--json]".into());
    };
    let journal = std::fs::read_to_string(path)
        .map_err(|e| CliError::Input(format!("cannot read {path}: {e}")))?;
    let lines = autoblox::journal::read_lines(&journal)
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| CliError::Input(format!("{path}: {e}")))?;
    if lines.is_empty() {
        return Err(CliError::Input(format!(
            "{path}: not a run journal: it has no `meta` line"
        )));
    }
    let doc = autoblox::explain::explain(&RunReport::fold(&lines));
    if parsed.has("--json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?
        );
    } else {
        print!("{}", autoblox::explain::render(&doc));
    }
    Ok(())
}

fn cmd_trace(args: &[String]) -> Result<(), CliError> {
    let [sub, rest @ ..] = args else {
        return Err("trace needs: export --chrome <journal.jsonl> <out-file>".into());
    };
    if sub != "export" {
        return Err(CliError::Usage(format!(
            "unknown trace subcommand {sub:?} (expected `export`)"
        )));
    }
    let [flag, journal_path, out_path] = rest else {
        return Err("trace export needs: --chrome <journal.jsonl> <out-file>".into());
    };
    if flag != "--chrome" {
        return Err(CliError::Usage(format!(
            "unknown trace export format {flag:?} (expected `--chrome`)"
        )));
    }
    let journal = std::fs::read_to_string(journal_path)
        .map_err(|e| CliError::Input(format!("cannot read {journal_path}: {e}")))?;
    let chrome = autoblox::journal::export_chrome(&journal).map_err(CliError::Input)?;
    std::fs::write(out_path, &chrome).map_err(|e| format!("cannot write {out_path}: {e}"))?;
    eprintln!(
        "wrote {out_path} ({} bytes); open it in https://ui.perfetto.dev or chrome://tracing",
        chrome.len()
    );
    Ok(())
}

/// Flags every writer command (`tune`/`whatif`) takes: the device
/// constraints, the run journal and the store.
const WRITER_FLAGS: [&str; 7] = [
    "--capacity",
    "--interface",
    "--flash",
    "--power",
    "--family",
    "--journal",
    "--db",
];

/// Opens the `--db <store>` of a writer command, if given, and attaches it
/// as the validator's measurement memo, so the same command run again
/// replays what was already simulated. Returns whether a store is attached.
fn attach_store(args: &[String], validator: &Validator) -> Result<bool, CliError> {
    let Some(path) = parse_flag::<String>(args, "--db")? else {
        return Ok(false);
    };
    let db = autodb::Store::open(&path)
        .map_err(|e| CliError::Input(format!("cannot open store {path}: {e}")))?;
    validator.attach_store(Arc::new(db));
    Ok(true)
}

/// Reports how much of a run with an attached store the store answered.
fn report_recalls(validator: &Validator) {
    let recalled = validator.memo_hits();
    eprintln!(
        "{} validations, {recalled} from the store",
        validator.simulator_runs() + recalled
    );
}

fn constraints_from(args: &[String]) -> Result<Constraints, CliError> {
    let capacity: u64 = parse_flag(args, "--capacity")?.unwrap_or(512);
    if capacity.checked_mul(1 << 30).is_none() {
        return Err(CliError::Input(format!(
            "--capacity {capacity} GiB does not fit in 64-bit bytes"
        )));
    }
    let power: f64 = parse_flag(args, "--power")?.unwrap_or(25.0);
    if !(power.is_finite() && power > 0.0) {
        return Err(CliError::Input(
            "--power must be a finite number of watts above 0".to_string(),
        ));
    }
    let interface = match parse_flag::<String>(args, "--interface")?.as_deref() {
        None | Some("nvme") => Interface::Nvme,
        Some("sata") => Interface::Sata,
        Some(other) => return Err(CliError::Usage(format!("unknown interface {other:?}"))),
    };
    let flash = match parse_flag::<String>(args, "--flash")?.as_deref() {
        Some("slc") => FlashTechnology::Slc,
        None | Some("mlc") => FlashTechnology::Mlc,
        Some("tlc") => FlashTechnology::Tlc,
        Some("qlc") => FlashTechnology::Qlc,
        Some(other) => return Err(CliError::Usage(format!("unknown flash type {other:?}"))),
    };
    let family = match parse_flag::<String>(args, "--family")?.as_deref() {
        None | Some("homogeneous") => DeviceFamily::Homogeneous,
        // The hybrid preset's knob values seed the search; all three stay
        // tunable within the family.
        Some("hybrid") | Some("hybrid-slc-cache") => presets::hybrid_slc_qlc().device_family,
        Some(other) => {
            return Err(CliError::Usage(format!(
                "unknown device family {other:?} (expected homogeneous|hybrid)"
            )))
        }
    };
    if family.is_hybrid() && flash.bits_per_cell() < 2 {
        return Err(CliError::Usage(
            "--family hybrid needs a multi-bit capacity tier (mlc|tlc|qlc), not slc".to_string(),
        ));
    }
    Ok(Constraints::new(capacity, interface, flash, power).with_family(family))
}

fn reference_for(constraints: &Constraints) -> SsdConfig {
    let mut reference = if constraints.family.is_hybrid() {
        // `pin` below re-targets the capacity tier's technology and
        // latencies when the constraints ask for something other than QLC.
        presets::hybrid_slc_qlc()
    } else {
        match (constraints.interface, constraints.flash_type) {
            (Interface::Sata, _) => presets::samsung_850_pro(),
            (Interface::Nvme, FlashTechnology::Slc) => presets::samsung_z_ssd(),
            _ => presets::intel_750(),
        }
    };
    constraints.pin(&mut reference);
    // Rescale the preset to the requested capacity: blocks and pages first
    // (a no-op inside the band), then, where the die-size floor stops them,
    // the channel count nearest the target and blocks and pages again. A
    // capacity no layout reaches is refused by the tuner with one line.
    let space = ParamSpace::new();
    if !constraints.repair_capacity(&space, &mut reference) {
        if let Some(channels) = space.param("channel_count") {
            let target = constraints.capacity_bytes as f64;
            let miss = |i| {
                let mut cfg = reference.clone();
                channels.set(&mut cfg, i);
                (cfg.effective_capacity_bytes() as f64 - target).abs()
            };
            let nearest = (0..channels.cardinality()).min_by(|&a, &b| miss(a).total_cmp(&miss(b)));
            if let Some(i) = nearest {
                channels.set(&mut reference, i);
                constraints.repair_capacity(&space, &mut reference);
            }
        }
    }
    reference
}

fn cmd_tune(args: &[String]) -> Result<(), CliError> {
    let valued = [&WRITER_FLAGS[..], &["--iterations", "--events"]].concat();
    let parsed = ReaderArgs::parse("tune", args, &[], &valued)?;
    let [workload] = parsed.positional.as_slice() else {
        return Err("tune needs <workload> [flags]".into());
    };
    let kind = parse_workload(workload).map_err(CliError::Usage)?;
    let constraints = constraints_from(args)?;
    let iterations: usize = parse_flag(args, "--iterations")?.unwrap_or(20);
    let trace_events: usize =
        parse_flag(args, "--events")?.unwrap_or(ValidatorOptions::default().trace_events);
    let validator = Validator::new(ValidatorOptions {
        trace_events,
        ..ValidatorOptions::default()
    });
    let stored = attach_store(args, &validator)?;
    let journal = open_journal(args)?;
    let opts = TunerOptions {
        max_iterations: iterations,
        non_target: WorkloadKind::STUDIED
            .iter()
            .copied()
            .filter(|&w| w != kind)
            .take(3)
            .collect(),
        ..TunerOptions::default()
    };
    let reference = reference_for(&constraints);
    let tuner = Tuner::new(constraints, &validator, opts);
    let outcome = autoblox::telemetry::global()
        .phase("tune", || tuner.try_tune(kind, &reference, &[], None))
        .map_err(CliError::Input)?;
    eprintln!(
        "converged after {} iterations ({} validations); grade {:+.4}; \
         latency {:.2}x, throughput {:.2}x vs reference",
        outcome.iterations,
        outcome.validations,
        outcome.best.grade,
        outcome.best.measurement.latency_speedup(&outcome.reference),
        outcome
            .best
            .measurement
            .throughput_speedup(&outcome.reference),
    );
    println!(
        "{}",
        serde_json::to_string_pretty(&outcome.best.config).map_err(|e| e.to_string())?
    );
    if stored {
        report_recalls(&validator);
    }
    if let Some(journal) = journal {
        journal.finish(Some(&validator))?;
    }
    Ok(())
}

fn cmd_whatif(args: &[String]) -> Result<(), CliError> {
    let valued = [&WRITER_FLAGS[..], &["--goal", "--factor", "--events"]].concat();
    let parsed = ReaderArgs::parse("whatif", args, &[], &valued)?;
    let [workload] = parsed.positional.as_slice() else {
        return Err("whatif needs <workload> --goal latency|throughput --factor F".into());
    };
    let kind = parse_workload(workload).map_err(CliError::Usage)?;
    let factor: f64 = parse_flag(args, "--factor")?.unwrap_or(3.0);
    if !(factor.is_finite() && factor > 0.0) {
        return Err(CliError::Input(
            "--factor must be a finite number above 0".to_string(),
        ));
    }
    let goal = match parse_flag::<String>(args, "--goal")?.as_deref() {
        None | Some("latency") => WhatIfGoal::LatencyReduction(factor),
        Some("throughput") => WhatIfGoal::ThroughputImprovement(factor),
        Some(other) => return Err(CliError::Usage(format!("unknown goal {other:?}"))),
    };
    let constraints = constraints_from(args)?;
    let trace_events: usize =
        parse_flag(args, "--events")?.unwrap_or(ValidatorOptions::default().trace_events);
    let validator = Validator::new(ValidatorOptions {
        trace_events,
        ..ValidatorOptions::default()
    });
    let stored = attach_store(args, &validator)?;
    let journal = open_journal(args)?;
    let reference = reference_for(&constraints);
    let out = autoblox::telemetry::global()
        .phase("whatif", || {
            what_if(
                kind,
                goal,
                constraints,
                &reference,
                &validator,
                WhatIfOptions::default(),
            )
        })
        .map_err(CliError::Input)?;
    eprintln!(
        "achieved {:.2}x ({}) in {} iterations",
        out.achieved,
        if out.met { "goal met" } else { "goal NOT met" },
        out.tuning.iterations
    );
    println!(
        "{}",
        serde_json::to_string_pretty(&out.tuning.best.config).map_err(|e| e.to_string())?
    );
    if stored {
        report_recalls(&validator);
    }
    if let Some(journal) = journal {
        journal.finish(Some(&validator))?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        return usage();
    };
    let rest = &args[1..];
    let result = match command.as_str() {
        "generate" => cmd_generate(rest),
        "profile" => cmd_profile(rest),
        "classify" => cmd_classify(rest),
        "simulate" => cmd_simulate(rest),
        "tune" => cmd_tune(rest),
        "whatif" => cmd_whatif(rest),
        // The retired `explain diff` form gets the usage text like any
        // unknown command.
        "explain" if rest.first().map(String::as_str) != Some("diff") => cmd_explain(rest),
        "trace" => cmd_trace(rest),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => fail(err),
    }
}

/// Prints the error and maps its class to the documented exit code.
fn fail(err: CliError) -> ExitCode {
    match err {
        CliError::Usage(msg) => {
            eprintln!("error: {msg}");
            eprintln!("run `autoblox` with no arguments for usage");
            ExitCode::from(2)
        }
        CliError::Input(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
        CliError::Other(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    /// Every command `main` dispatches is documented in the usage text, and
    /// the usage text documents nothing `main` does not dispatch.
    #[test]
    fn usage_lists_exactly_the_dispatched_commands() {
        let source = include_str!("autoblox.rs");
        let main_body = &source[source.find("\nfn main()").expect("main exists")..];
        let dispatch = &main_body[..main_body.find("_ => return usage()").expect("fallback arm")];
        let mut dispatched: Vec<&str> = dispatch
            .lines()
            .filter_map(|l| l.trim().strip_prefix('"')?.split('"').next())
            .collect();
        assert!(
            dispatched.len() >= 8,
            "parsed the match arms: {dispatched:?}"
        );

        let usage = super::usage_text();
        let commands = usage
            .split("commands:\n")
            .nth(1)
            .and_then(|rest| rest.split("\n\n").next())
            .expect("usage has a commands section");
        // A command's entry starts at column 2; continuation lines are
        // indented further.
        let mut documented: Vec<&str> = commands
            .lines()
            .filter_map(|l| l.strip_prefix("  ")?.split(' ').next())
            .filter(|word| !word.is_empty())
            .collect();
        dispatched.sort_unstable();
        dispatched.dedup();
        documented.sort_unstable();
        documented.dedup();
        assert_eq!(dispatched, documented);
    }
}
