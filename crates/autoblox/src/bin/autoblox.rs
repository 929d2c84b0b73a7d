//! `autoblox` — command-line front end for the framework.
//!
//! ```text
//! autoblox generate <workload> <events> <seed> [out.csv]
//! autoblox profile <trace-file> [csv|blkparse|msr]
//! autoblox classify <trace-file> [csv|blkparse|msr]
//! autoblox simulate <workload|trace-file> [config.json]
//! autoblox tune <workload> [--iterations N] [--events N] [--capacity GIB]
//!               [--interface nvme|sata] [--flash slc|mlc|tlc|qlc] [--power W]
//!               [--family homogeneous|hybrid] [--speculate K]
//!               [--telemetry out.json] [--journal out.jsonl]
//!               [--checkpoint dir/] [--checkpoint-every N] [--resume]
//!               [--stop-after-iter N] [--db store.db] [--record]
//! autoblox whatif <workload> --goal latency|throughput --factor F
//!               [--telemetry out.json] [--journal out.jsonl]
//!               [--db store.db] [--record]
//! autoblox place --devices M --traces <spec|file>[,...] [--db store.db]
//!               [--record] [--json out.json] [--alpha F] [--rounds N]
//!               [--no-classify] [--capacity GIB] [--interface nvme|sata]
//!               [--flash slc|mlc|tlc|qlc] [--family homogeneous|hybrid]
//!               [--power W] [--telemetry out.json]
//!               [--journal out.jsonl]
//! autoblox runs list [--db store.db] [--json] [--category <name>] [--limit N]
//! autoblox runs show <run-key> [--db store.db] [--json]
//! autoblox watch <journal.jsonl> [--replay] [--json] [--interval-ms N]
//! autoblox telemetry-check <report.json>
//! autoblox checkpoint inspect <checkpoint.json> [--json]
//! autoblox explain <telemetry.json> [--json]
//! autoblox explain diff <baseline.json> <candidate.json> [--json]
//! autoblox inspect <telemetry.json> [--json]
//! autoblox inspect diff <baseline.json> <candidate.json> [--json]
//! autoblox trace export --chrome|--csv <journal.jsonl> <out-file>
//! autoblox report diff <baseline.json> <candidate.json> [--ignore-time]
//!               [--max-grade-drop F] [--max-validation-increase F]
//!               [--max-hit-rate-drop F] [--max-sim-time-increase F]
//!               [--max-tail-shift F] [--max-bottleneck-shift F]
//!               [--ignore <metric>]...
//! autoblox report trend [--db store.db] [--window N] [--category C]
//!               [--max-grade-drop F] [--max-run-inflation F]
//!               [--max-bottleneck-shift F] [--min-calibration-coverage F]
//!               [--json]
//! ```
//!
//! `inspect` is the model observatory: from one `--telemetry` report it
//! derives the surrogate's calibration record (±1σ/±2σ coverage, RMSE,
//! NLPD), the per-parameter importance ranking, and the per-iteration
//! explore-vs-exploit decision provenance; `inspect diff` compares two
//! reports.
//!
//! A `tune`/`whatif`/`place` invocation with `--db` (or the opt-in
//! `--record`, which uses the default store `autoblox.db`) registers a
//! compact run summary under `run:<category>:<seq>` — the persistent
//! history `runs list/show` queries and `report trend` judges.
//!
//! Trace files are auto-detected by extension when the format argument is
//! omitted (`.csv`, `.blk`, `.msr`).
//!
//! Output discipline: machine-readable results (tuned configurations,
//! cluster decisions, simulator reports, telemetry) go to **stdout**;
//! progress and human-oriented commentary go to **stderr**, so pipelines
//! can consume the JSON without scraping.
//!
//! Exit codes: `0` success, `1` runtime failure, `2` usage error (missing
//! operands, bad flag values, a zero device budget) or a malformed input
//! file (unreadable/unparseable trace, telemetry report, config, run
//! journal, or checkpoint), `3` a `report diff` regression.

use autoblox::checkpoint::Checkpoint;
use autoblox::clustering::{ClusterDecision, WorkloadClusterer};
use autoblox::constraints::Constraints;
use autoblox::journal::Journal;
use autoblox::report_diff::{diff_reports, DiffThresholds};
use autoblox::telemetry::RunReport;
use autoblox::tuner::{Tuner, TunerOptions, TuningTarget};
use autoblox::validator::{Validator, ValidatorOptions};
use autoblox::whatif::{what_if, WhatIfGoal, WhatIfOptions};
use iotrace::gen::WorkloadKind;
use iotrace::parse::{parse_blkparse, parse_csv, parse_msr, write_csv};
use iotrace::stats::TraceProfile;
use iotrace::window::WindowOptions;
use iotrace::Trace;
use serde::Serialize;
use ssdsim::config::{presets, DeviceFamily, FlashTechnology, Interface, SsdConfig};
use ssdsim::Simulator;
use std::fs::File;
use std::io::BufReader;
use std::process::ExitCode;

/// A classified CLI failure so `main` can pick the right exit code:
/// usage errors and malformed user input exit `2`, anything else `1`.
enum CliError {
    /// The command line itself is wrong: missing operands, an unknown
    /// flag value, a zero device budget, and so on.
    Usage(String),
    /// A user-supplied input file (trace, config JSON, telemetry report,
    /// run journal, or checkpoint) could not be read or failed validation.
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
    eprintln!(
        "usage: autoblox <command> ...\n\
         \n\
         commands:\n\
         \x20 generate <workload> <events> <seed> [out.csv]   synthesize a trace\n\
         \x20 profile  <trace-file> [csv|blkparse|msr]        print workload statistics\n\
         \x20 classify <trace-file> [csv|blkparse|msr]        match against the studied clusters\n\
         \x20 simulate <workload|trace-file> [config.json]    run the SSD simulator\n\
         \x20 tune     <workload> [--iterations N] [--events N] [--capacity GIB]\n\
         \x20          [--interface nvme|sata] [--flash slc|mlc|tlc|qlc] [--power W]\n\
         \x20          [--family homogeneous|hybrid] [--speculate K]\n\
         \x20          [--telemetry out.json] [--journal out.jsonl]\n\
         \x20          [--checkpoint dir/] [--checkpoint-every N] [--resume]\n\
         \x20          [--stop-after-iter N] [--db store.db] [--record]\n\
         \x20          (--speculate K prefetches K candidates per iteration; 0, the\n\
         \x20           default, is min(worker threads, CPUs); results are identical\n\
         \x20           for every K)\n\
         \x20 whatif   <workload> --goal latency|throughput --factor F\n\
         \x20          [--telemetry out.json] [--journal out.jsonl]\n\
         \x20          [--db store.db] [--record]\n\
         \x20 place    --devices M --traces <spec|file>[,...]  consolidate tenant workloads\n\
         \x20          [--db store.db] [--record]              onto M virtual devices\n\
         \x20          [--json out.json]\n\
         \x20          [--alpha F] [--rounds N] [--no-classify]\n\
         \x20          [--capacity GIB] [--interface nvme|sata] [--flash slc|mlc|tlc|qlc]\n\
         \x20          [--family homogeneous|hybrid] [--power W]\n\
         \x20          [--telemetry out.json] [--journal out.jsonl]\n\
         \x20          (a trace spec is <workload>:<events>:<seed>;\n\
         \x20           --db/--record also register a run summary in the registry)\n\
         \x20 runs     list [--db store.db] [--json]           browse the run registry\n\
         \x20          [--category <name>] [--limit N]         (filter by category; keep the\n\
         \x20                                                  N most recent, N >= 1)\n\
         \x20 runs     show <run-key> [--db store.db] [--json] one recorded run in full\n\
         \x20 watch    <journal.jsonl> [--replay] [--json]     live progress dashboard over\n\
         \x20          [--interval-ms N]                       a streaming run journal\n\
         \x20 telemetry-check <report.json>                   validate a telemetry report\n\
         \x20 checkpoint inspect <checkpoint.json> [--json]   summarize a tuning checkpoint\n\
         \x20 explain  <telemetry.json> [--json]              bottleneck fingerprint of a run\n\
         \x20 explain  diff <baseline.json> <candidate.json> [--json]\n\
         \x20                                                 did the bottleneck move?\n\
         \x20 inspect  <telemetry.json> [--json]              model observatory: surrogate\n\
         \x20                                                 calibration, parameter importance,\n\
         \x20                                                 decision provenance\n\
         \x20 inspect  diff <baseline.json> <candidate.json> [--json]\n\
         \x20                                                 did the model's behavior move?\n\
         \x20 trace    export --chrome|--csv <journal.jsonl> <out-file>\n\
         \x20                                                 convert a run journal to Perfetto\n\
         \x20                                                 or a device-sample CSV (model\n\
         \x20                                                 calibration rows when no series)\n\
         \x20 report   diff <baseline.json> <candidate.json>  regression-diff two telemetry\n\
         \x20          [--ignore-time] [--max-grade-drop F]   reports (exit 3 on regression)\n\
         \x20          [--max-validation-increase F] [--max-hit-rate-drop F]\n\
         \x20          [--max-sim-time-increase F] [--max-tail-shift F]\n\
         \x20          [--max-bottleneck-shift F] [--ignore <metric>]...\n\
         \x20 report   trend [--db store.db] [--window N]      judge the newest recorded run\n\
         \x20          [--category C] [--max-grade-drop F]     against the registry's recent\n\
         \x20          [--max-run-inflation F]                 history (exit 3 on drift)\n\
         \x20          [--max-bottleneck-shift F]\n\
         \x20          [--min-calibration-coverage F] [--json]\n\
         \n\
         exit codes:\n\
         \x20 0  success\n\
         \x20 1  runtime failure\n\
         \x20 2  usage error (missing operands, bad flag values, zero device budget,\n\
         \x20    malformed run keys) or a malformed/unreadable input file\n\
         \x20 3  `report diff` found a regression / `report trend` found drift\n\
         \n\
         workloads: {}",
        WorkloadKind::STUDIED
            .iter()
            .chain(WorkloadKind::NEW.iter())
            .map(|k| k.name())
            .collect::<Vec<_>>()
            .join(", ")
    );
    ExitCode::from(2)
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

/// Shared observability sink configuration for the `tune` and `whatif`
/// subcommands: the `--telemetry` report path and the `--journal` stream
/// path are parsed, armed, and flushed in exactly one place, so a flag
/// added here can never drift between the two commands.
struct SinkConfig {
    telemetry: Option<String>,
    journal_path: Option<String>,
    journal: Option<Journal>,
}

impl SinkConfig {
    /// Parses `--telemetry` / `--journal` and, when either is present, arms
    /// telemetry collection (clearing prior state so the outputs cover
    /// exactly this command) and opens the journal.
    fn from_args(args: &[String]) -> Result<SinkConfig, CliError> {
        let telemetry: Option<String> = parse_flag(args, "--telemetry")?;
        let journal_path: Option<String> = parse_flag(args, "--journal")?;
        if telemetry.is_some() || journal_path.is_some() {
            autoblox::telemetry::set_enabled(true);
            autoblox::parallel::reset_pool_stats();
            autoblox::telemetry::global().clear();
        }
        let journal = match &journal_path {
            Some(path) => {
                let j = Journal::create(path).map_err(CliError::Other)?;
                autoblox::telemetry::global().attach_journal(j.handle());
                eprintln!("streaming run journal to {path}");
                Some(j)
            }
            None => None,
        };
        Ok(SinkConfig {
            telemetry,
            journal_path,
            journal,
        })
    }

    /// Writes the telemetry report (if requested) and closes the journal
    /// (if open), printing the histogram-derived latency percentiles the
    /// run observed.
    fn finish(mut self, validator: &Validator) -> Result<(), String> {
        if let Some(path) = &self.telemetry {
            let report = autoblox::telemetry::global().report(Some(validator));
            let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
            std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))?;
            let p = report.latency_percentiles;
            eprintln!(
                "telemetry report written to {path} \
                 (latency p50 {} ns, p95 {} ns, p99 {} ns)",
                p.p50_ns, p.p95_ns, p.p99_ns
            );
            // Optimization-visibility summary: total surrogate fitting time
            // (the incremental GPR chain should keep this flat as the
            // observation set grows) and the speculation ledger (hits =
            // prefetched results a demand later consumed; wasted = bounded
            // extra simulator work that never got used).
            let fit_ns: u64 = report
                .tuner
                .iter()
                .flat_map(|t| t.records.iter())
                .map(|r| r.surrogate_fit_ns)
                .sum();
            let v = &report.validator;
            eprintln!(
                "surrogate fit {:.3} ms total; speculation: {} run(s), {} hit(s), {} wasted",
                fit_ns as f64 / 1e6,
                v.speculative_runs,
                v.speculative_hits,
                v.speculative_wasted,
            );
        }
        if let Some(j) = self.journal.take() {
            autoblox::telemetry::global().detach_journal();
            let path = self.journal_path.as_deref().expect("journal has a path");
            j.finish(path)?;
            eprintln!("run journal closed: {path}");
        }
        Ok(())
    }
}

fn cmd_telemetry_check(args: &[String]) -> Result<(), CliError> {
    let [path] = args else {
        return Err("telemetry-check needs <report.json>".into());
    };
    let json = std::fs::read_to_string(path)
        .map_err(|e| CliError::Input(format!("cannot read {path}: {e}")))?;
    let checked = autoblox::telemetry::RunReport::parse_checked_verbose(&json)
        .map_err(|e| CliError::Input(format!("{path}: {e}")))?;
    for w in &checked.warnings {
        eprintln!("warning: {path}: {w}");
    }
    let report = checked.report;
    let p = report.latency_percentiles;
    eprintln!(
        "{path}: valid {} report ({} phase(s), {} tuner run(s), {} simulator run(s); \
         latency p50 {} ns, p95 {} ns, p99 {} ns)",
        report.schema,
        report.phases.len(),
        report.tuner.len(),
        report.validator.simulator_runs,
        p.p50_ns,
        p.p95_ns,
        p.p99_ns,
    );
    // Machine-readable verdict (with the accepted schema version echoed)
    // to stdout so CI can assert on it without scraping stderr.
    let verdict = serde_json::json!({
        "path": path.clone(),
        "schema": report.schema.clone(),
        "valid": true,
        "warnings": checked.warnings,
        "phases": report.phases.len() as u64,
        "tuner_runs": report.tuner.len() as u64,
        "simulator_runs": report.validator.simulator_runs,
    });
    println!(
        "{}",
        serde_json::to_string_pretty(&verdict).map_err(|e| e.to_string())?
    );
    Ok(())
}

/// Reads and validates a telemetry report; any failure is an input error.
fn load_report(path: &str) -> Result<RunReport, CliError> {
    let json = std::fs::read_to_string(path)
        .map_err(|e| CliError::Input(format!("cannot read {path}: {e}")))?;
    RunReport::parse_checked(&json).map_err(|e| CliError::Input(format!("{path}: {e}")))
}

/// Prints `value` as pretty JSON when `json_out`, else through `render`.
fn emit<T: Serialize>(value: &T, json_out: bool, render: fn(&T) -> String) -> Result<(), CliError> {
    if json_out {
        println!(
            "{}",
            serde_json::to_string_pretty(value).map_err(|e| e.to_string())?
        );
    } else {
        print!("{}", render(value));
    }
    Ok(())
}

/// The shape `explain` and `inspect` share: `<report> [--json]` shows one
/// view of a report, `diff <baseline> <candidate> [--json]` compares two.
fn cmd_view_or_diff<V: Serialize, D: Serialize>(
    name: &str,
    args: &[String],
    view: fn(&RunReport) -> V,
    render_view: fn(&V) -> String,
    diff: fn(&RunReport, &RunReport) -> D,
    render_diff: fn(&D) -> String,
) -> Result<(), CliError> {
    let json_out = args.iter().any(|a| a == "--json");
    let positional: Vec<&String> = args.iter().filter(|a| *a != "--json").collect();
    match positional.as_slice() {
        [path] if *path != "diff" => emit(&view(&load_report(path)?), json_out, render_view),
        [sub, baseline, candidate] if *sub == "diff" => {
            let d = diff(&load_report(baseline)?, &load_report(candidate)?);
            emit(&d, json_out, render_diff)
        }
        _ => Err(CliError::Usage(format!(
            "{name} needs <telemetry.json> [--json] or diff <baseline.json> <candidate.json> \
             [--json]"
        ))),
    }
}

fn cmd_explain(args: &[String]) -> Result<(), CliError> {
    use autoblox::explain::{explain_diff, fingerprint, render_diff, render_fingerprint};
    cmd_view_or_diff(
        "explain",
        args,
        fingerprint,
        render_fingerprint,
        explain_diff,
        render_diff,
    )
}

fn cmd_inspect(args: &[String]) -> Result<(), CliError> {
    use autoblox::model_obs::{inspect, inspect_diff, render_model, render_model_diff};
    cmd_view_or_diff(
        "inspect",
        args,
        inspect,
        render_model,
        inspect_diff,
        render_model_diff,
    )
}

fn cmd_trace(args: &[String]) -> Result<(), CliError> {
    let [sub, rest @ ..] = args else {
        return Err("trace needs: export --chrome|--csv <journal.jsonl> <out-file>".into());
    };
    if sub != "export" {
        return Err(CliError::Usage(format!(
            "unknown trace subcommand {sub:?} (expected `export`)"
        )));
    }
    let [flag, journal_path, out_path] = rest else {
        return Err("trace export needs: --chrome|--csv <journal.jsonl> <out-file>".into());
    };
    let journal = std::fs::read_to_string(journal_path)
        .map_err(|e| CliError::Input(format!("cannot read {journal_path}: {e}")))?;
    match flag.as_str() {
        "--chrome" => {
            let chrome = autoblox::journal::export_chrome(&journal).map_err(CliError::Input)?;
            std::fs::write(out_path, &chrome)
                .map_err(|e| format!("cannot write {out_path}: {e}"))?;
            eprintln!(
                "wrote {out_path} ({} bytes); open it in https://ui.perfetto.dev or \
                 chrome://tracing",
                chrome.len()
            );
        }
        "--csv" => {
            // Device series are the primary export; a journal recorded
            // without the sampler can still export its model-observatory
            // calibration records.
            let (csv, kind) = match autoblox::journal::export_csv(&journal) {
                Ok(csv) => (csv, "device-sample"),
                Err(series_err) => match autoblox::journal::export_calibration_csv(&journal) {
                    Ok(csv) => (csv, "calibration"),
                    Err(_) => return Err(CliError::Input(series_err)),
                },
            };
            std::fs::write(out_path, &csv).map_err(|e| format!("cannot write {out_path}: {e}"))?;
            eprintln!(
                "wrote {out_path} ({} {kind} row(s))",
                csv.lines().count().saturating_sub(1)
            );
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown trace export format {other:?} (expected `--chrome` or `--csv`)"
            )))
        }
    }
    Ok(())
}

/// Exit code returned by `report diff` on regression and `report trend`
/// on drift (distinct from `1` = usage/parse error so CI can tell them
/// apart).
const EXIT_REGRESSION: u8 = 3;

fn cmd_report(args: &[String]) -> Result<ExitCode, CliError> {
    let [sub, rest @ ..] = args else {
        return Err(
            "report needs: diff <baseline.json> <candidate.json> [flags] or trend [flags]".into(),
        );
    };
    match sub.as_str() {
        "diff" => cmd_report_diff(rest),
        "trend" => cmd_report_trend(rest),
        other => Err(CliError::Usage(format!(
            "unknown report subcommand {other:?} (expected `diff` or `trend`)"
        ))),
    }
}

fn cmd_report_diff(rest: &[String]) -> Result<ExitCode, CliError> {
    let [baseline_path, candidate_path, flags @ ..] = rest else {
        return Err("report diff needs <baseline.json> <candidate.json>".into());
    };
    let defaults = DiffThresholds::default();
    let thresholds = DiffThresholds {
        max_grade_drop: parse_flag(flags, "--max-grade-drop")?.unwrap_or(defaults.max_grade_drop),
        max_validation_increase: parse_flag(flags, "--max-validation-increase")?
            .unwrap_or(defaults.max_validation_increase),
        max_hit_rate_drop: parse_flag(flags, "--max-hit-rate-drop")?
            .unwrap_or(defaults.max_hit_rate_drop),
        max_sim_time_increase: parse_flag(flags, "--max-sim-time-increase")?
            .unwrap_or(defaults.max_sim_time_increase),
        max_tail_latency_shift: parse_flag(flags, "--max-tail-shift")?
            .unwrap_or(defaults.max_tail_latency_shift),
        max_bottleneck_shift: parse_flag(flags, "--max-bottleneck-shift")?
            .unwrap_or(defaults.max_bottleneck_shift),
        ignore_time: flags.iter().any(|a| a == "--ignore-time"),
    };
    // `--ignore <metric>` is repeatable, so it cannot go through parse_flag
    // (which stops at the first hit).
    let mut ignore: Vec<String> = Vec::new();
    let mut i = 0;
    while i < flags.len() {
        if flags[i] == "--ignore" {
            let value = flags
                .get(i + 1)
                .ok_or_else(|| "--ignore needs a metric name".to_string())?;
            ignore.push(value.clone());
            i += 2;
        } else {
            i += 1;
        }
    }
    let baseline = load_report(baseline_path)?;
    let candidate = load_report(candidate_path)?;
    let diff = diff_reports(&baseline, &candidate, &thresholds, &ignore);
    // Machine-readable verdict to stdout; the human summary to stderr.
    println!(
        "{}",
        serde_json::to_string_pretty(&diff).map_err(|e| e.to_string())?
    );
    for m in &diff.metrics {
        eprintln!(
            "{} {:<28} {:>14.3} -> {:>14.3}  ({:+.1}%){}",
            if m.regressed {
                "REGRESSED"
            } else if m.checked {
                "ok       "
            } else {
                "info     "
            },
            m.metric,
            m.baseline,
            m.candidate,
            m.relative * 100.0,
            if m.checked {
                String::new()
            } else {
                " [unchecked]".to_string()
            },
        );
    }
    if diff.pass {
        eprintln!("verdict: PASS");
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("verdict: REGRESSION ({})", diff.regressions.join(", "));
        Ok(ExitCode::from(EXIT_REGRESSION))
    }
}

/// Default AutoDB store used by `--record` (and by `runs`/`report trend`
/// when `--db` is omitted) so the zero-config path "record a few runs,
/// then ask about them" works without threading a path around.
const DEFAULT_RUN_STORE: &str = "autoblox.db";

/// Opens an existing run-registry store. `Store::open` would create the
/// file, which is never what a read-only query wants — a missing registry
/// is an input error, not an empty history.
fn open_run_store(db_path: &str) -> Result<autodb::Store, CliError> {
    if !std::path::Path::new(db_path).exists() {
        return Err(CliError::Input(format!(
            "no run registry at {db_path} (record runs with --db/--record first)"
        )));
    }
    autodb::Store::open(db_path)
        .map_err(|e| CliError::Input(format!("cannot open store {db_path}: {e}")))
}

fn cmd_report_trend(rest: &[String]) -> Result<ExitCode, CliError> {
    let json_only = rest.iter().any(|a| a == "--json");
    let db_path: String =
        parse_flag(rest, "--db")?.unwrap_or_else(|| DEFAULT_RUN_STORE.to_string());
    let defaults = autoblox::TrendThresholds::default();
    let thresholds = autoblox::TrendThresholds {
        window: parse_flag(rest, "--window")?.unwrap_or(defaults.window),
        max_grade_drop: parse_flag(rest, "--max-grade-drop")?.unwrap_or(defaults.max_grade_drop),
        max_run_inflation: parse_flag(rest, "--max-run-inflation")?
            .unwrap_or(defaults.max_run_inflation),
        max_bottleneck_shift: parse_flag(rest, "--max-bottleneck-shift")?
            .unwrap_or(defaults.max_bottleneck_shift),
        min_calibration_coverage: parse_flag(rest, "--min-calibration-coverage")?
            .unwrap_or(defaults.min_calibration_coverage),
    };
    if thresholds.window < 2 {
        return Err("--window must be at least 2 (a run needs history to drift from)".into());
    }
    if !(0.0..=1.0).contains(&thresholds.min_calibration_coverage) {
        return Err("--min-calibration-coverage must be in [0, 1]".into());
    }
    let category: Option<String> = parse_flag(rest, "--category")?;
    let db = open_run_store(&db_path)?;
    let report = autoblox::trend(&db, &thresholds, category.as_deref()).map_err(CliError::Input)?;
    // Machine-readable verdict to stdout; the human summary to stderr
    // (suppressed by --json so scripted callers get a quiet channel).
    println!(
        "{}",
        serde_json::to_string_pretty(&serde_json::to_value(&report).map_err(|e| e.to_string())?)
            .map_err(|e| e.to_string())?
    );
    if !json_only {
        eprint!("{}", autoblox::obs::render_trend(&report));
    }
    if report.pass {
        if !json_only {
            eprintln!("verdict: PASS");
        }
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("verdict: DRIFT ({})", report.drifts.join(", "));
        Ok(ExitCode::from(EXIT_REGRESSION))
    }
}

/// Opt-in run-registry recording for `tune`/`whatif`/`place`: `--db
/// <store>` picks the store, bare `--record` uses [`DEFAULT_RUN_STORE`].
/// Construction arms the telemetry switch (bottleneck shares come from
/// the validator's simulator aggregate, which only accumulates under it);
/// `record`/`record_with` write one [`autoblox::RunSummary`] when the
/// command completes.
struct RunRecorder {
    db_path: Option<String>,
    started: std::time::Instant,
}

impl RunRecorder {
    fn from_args(args: &[String]) -> Result<RunRecorder, CliError> {
        let db: Option<String> = parse_flag(args, "--db")?;
        let db_path = match (db, args.iter().any(|a| a == "--record")) {
            (Some(path), _) => Some(path),
            (None, true) => Some(DEFAULT_RUN_STORE.to_string()),
            (None, false) => None,
        };
        if db_path.is_some() {
            autoblox::telemetry::set_enabled(true);
        }
        Ok(RunRecorder {
            db_path,
            started: std::time::Instant::now(),
        })
    }

    fn active(&self) -> bool {
        self.db_path.is_some()
    }

    #[allow(clippy::too_many_arguments)]
    fn record(
        &self,
        command: &str,
        category: &str,
        device_family: &str,
        seed: u64,
        best_grade: f64,
        iterations: u64,
        validator: &Validator,
        records: &[autoblox::tuner::IterationRecord],
    ) -> Result<(), CliError> {
        let Some(path) = &self.db_path else {
            return Ok(());
        };
        let db = autodb::Store::open(path)
            .map_err(|e| CliError::Input(format!("cannot open store {path}: {e}")))?;
        self.record_with(
            &db,
            command,
            category,
            device_family,
            seed,
            best_grade,
            iterations,
            validator,
            records,
        )
    }

    /// Records into an already-open store handle (`place` shares its
    /// recall store rather than opening a second appender on one file).
    /// `records` feeds the surrogate-calibration coverage the trend gate
    /// judges (empty for commands without a tuner, e.g. `place`).
    #[allow(clippy::too_many_arguments)]
    fn record_with(
        &self,
        db: &autodb::Store,
        command: &str,
        category: &str,
        device_family: &str,
        seed: u64,
        best_grade: f64,
        iterations: u64,
        validator: &Validator,
        records: &[autoblox::tuner::IterationRecord],
    ) -> Result<(), CliError> {
        let (calibration_coverage_1s, calibration_points) =
            autoblox::model_obs::coverage_1s(records);
        let summary = autoblox::RunSummary {
            schema: autoblox::obs::RUNS_SCHEMA.to_string(),
            command: command.to_string(),
            category: category.to_string(),
            device_family: device_family.to_string(),
            seed,
            best_grade,
            iterations,
            simulator_runs: validator.simulator_runs(),
            bottleneck: validator.stats().sim.bottleneck(),
            calibration_coverage_1s,
            calibration_points,
            threads: autoblox::parallel::max_threads() as u64,
            wall_ns: self.started.elapsed().as_nanos() as u64,
        };
        let key = autoblox::record_run(db, &summary).map_err(CliError::Other)?;
        eprintln!("run recorded as {key}");
        Ok(())
    }
}

fn cmd_runs(args: &[String]) -> Result<(), CliError> {
    let [sub, rest @ ..] = args else {
        return Err(
            "runs needs: list [--db store.db] [--json] [--category <name>] [--limit N] \
             or show <run-key> [--db] [--json]"
                .into(),
        );
    };
    let json_out = rest.iter().any(|a| a == "--json");
    let db_path: String =
        parse_flag(rest, "--db")?.unwrap_or_else(|| DEFAULT_RUN_STORE.to_string());
    match sub.as_str() {
        "list" => {
            let category: Option<String> = parse_flag(rest, "--category")?;
            if let Some(cat) = &category {
                if cat.is_empty() {
                    return Err("--category needs a non-empty name".into());
                }
            }
            let limit: Option<u64> = parse_flag(rest, "--limit")?;
            if limit == Some(0) {
                return Err("--limit must be at least 1".into());
            }
            let db = open_run_store(&db_path)?;
            let mut runs = autoblox::obs::list_runs(&db).map_err(CliError::Input)?;
            if let Some(cat) = &category {
                runs.retain(|(_, s)| s.category == *cat);
                if runs.is_empty() {
                    return Err(CliError::Input(format!(
                        "no recorded runs for category `{cat}` in {db_path}"
                    )));
                }
            }
            if let Some(n) = limit {
                // Keep the newest N entries of the (oldest-first) listing.
                let drop = runs.len().saturating_sub(n as usize);
                runs.drain(..drop);
            }
            if json_out {
                // The JSON listing emits fingerprints (host-varying fields
                // stripped) so diffing two listings compares substance.
                let entries: Vec<serde_json::Value> = runs
                    .iter()
                    .map(|(key, summary)| {
                        let mut value = summary.fingerprint();
                        if let serde_json::Value::Object(map) = &mut value {
                            map.insert("key".to_string(), serde_json::json!(key));
                        }
                        value
                    })
                    .collect();
                let doc = serde_json::json!({
                    "schema": autoblox::obs::RUNS_SCHEMA,
                    "runs": entries,
                });
                println!(
                    "{}",
                    serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?
                );
            } else {
                print!("{}", autoblox::obs::render_runs(&runs));
            }
        }
        "show" => {
            let mut positional: Vec<&String> = Vec::new();
            let mut i = 0;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--json" => i += 1,
                    "--db" => i += 2,
                    _ => {
                        positional.push(&rest[i]);
                        i += 1;
                    }
                }
            }
            let [key] = positional.as_slice() else {
                return Err("runs show needs <run-key> [--db store.db] [--json]".into());
            };
            // Malformed keys are usage errors (exit 2) before any I/O.
            autoblox::obs::parse_run_key(key).map_err(CliError::Usage)?;
            let db = open_run_store(&db_path)?;
            let summary: autoblox::RunSummary = db
                .get_record(key)
                .map_err(|e| CliError::Input(format!("{key}: {e}")))?
                .ok_or_else(|| CliError::Input(format!("no run {key} in {db_path}")))?;
            if json_out {
                let mut value = serde_json::to_value(&summary).map_err(|e| e.to_string())?;
                if let serde_json::Value::Object(map) = &mut value {
                    map.insert("key".to_string(), serde_json::json!(key.as_str()));
                }
                println!(
                    "{}",
                    serde_json::to_string_pretty(&value).map_err(|e| e.to_string())?
                );
            } else {
                print!(
                    "{}",
                    autoblox::obs::render_runs(&[(key.to_string(), summary)])
                );
            }
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown runs subcommand {other:?} (expected `list` or `show`)"
            )))
        }
    }
    Ok(())
}

fn cmd_watch(args: &[String]) -> Result<(), CliError> {
    let json_out = args.iter().any(|a| a == "--json");
    let replay = args.iter().any(|a| a == "--replay");
    let interval_ms: u64 = parse_flag(args, "--interval-ms")?.unwrap_or(250);
    let mut positional: Vec<&String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" | "--replay" => i += 1,
            "--interval-ms" => i += 2,
            other if other.starts_with("--") => {
                return Err(CliError::Usage(format!("unknown watch flag {other:?}")));
            }
            _ => {
                positional.push(&args[i]);
                i += 1;
            }
        }
    }
    let [path] = positional.as_slice() else {
        return Err("watch needs <journal.jsonl> [--replay] [--json] [--interval-ms N]".into());
    };
    if replay {
        let text = std::fs::read_to_string(path)
            .map_err(|e| CliError::Input(format!("cannot read {path}: {e}")))?;
        let mut state = autoblox::WatchState::new();
        for line in text.lines() {
            state.ingest(line);
        }
        check_watch_schema(path, &state)?;
        if state.counts().total() == 0 {
            return Err(CliError::Input(format!(
                "{path}: no journal lines recognized"
            )));
        }
        if state.counts().skipped > 0 {
            eprintln!(
                "warning: {path}: {} malformed line(s) skipped",
                state.counts().skipped
            );
        }
        if json_out {
            // Timing excluded: the replay snapshot is a fingerprint, and
            // byte-comparing it across hosts/thread counts is the point.
            println!(
                "{}",
                serde_json::to_string_pretty(&state.snapshot(false)).map_err(|e| e.to_string())?
            );
        } else {
            print!("{}", state.render());
        }
        return Ok(());
    }
    // Live mode: poll the file for appended bytes (no notify dependency),
    // carrying partial trailing lines until the writer finishes them.
    use std::io::Read as _;
    let interval = std::time::Duration::from_millis(interval_ms.max(20));
    let mut state = autoblox::WatchState::new();
    let mut carry = String::new();
    let mut file: Option<File> = None;
    let mut announced_wait = false;
    let mut opened_ino: u64 = 0;
    let mut consumed: u64 = 0;
    loop {
        // A producer that truncates or replaces the journal leaves the old
        // handle stalled at its EOF forever; detect that and start over on
        // the new file.
        if file.is_some() {
            match journal_identity(path) {
                Some((ino, len)) if ino == opened_ino && len >= consumed => {}
                _ => {
                    eprintln!("{path}: journal truncated or replaced; restarting watch");
                    file = None;
                    state = autoblox::WatchState::new();
                    carry.clear();
                    consumed = 0;
                }
            }
        }
        if file.is_none() {
            match File::open(path) {
                Ok(f) => {
                    opened_ino = journal_identity(path).map(|(ino, _)| ino).unwrap_or(0);
                    file = Some(f);
                }
                Err(_) if !announced_wait => {
                    eprintln!("waiting for {path} to appear ...");
                    announced_wait = true;
                }
                Err(_) => {}
            }
        }
        if let Some(f) = &mut file {
            // The handle keeps its offset, so each pass reads only what the
            // producer appended since the previous tick.
            let mut fresh = String::new();
            f.read_to_string(&mut fresh)
                .map_err(|e| CliError::Other(format!("read error on {path}: {e}")))?;
            if !fresh.is_empty() {
                consumed += fresh.len() as u64;
                carry.push_str(&fresh);
                while let Some(end) = carry.find('\n') {
                    let line: String = carry[..end].to_string();
                    state.ingest(&line);
                    carry.drain(..=end);
                }
            }
            check_watch_schema(path, &state)?;
            if json_out {
                // One compact snapshot per tick: a machine-readable ticker.
                println!(
                    "{}",
                    serde_json::to_string(&state.snapshot(true)).map_err(|e| e.to_string())?
                );
            } else {
                eprint!("\r\x1b[2K{}", state.status_line());
            }
            if state.summary_seen() {
                if !json_out {
                    eprintln!();
                }
                return Ok(());
            }
        }
        std::thread::sleep(interval);
    }
}

/// Identity (inode, length) of the journal at `path`, for the live
/// watcher's rotation/truncation detection.
fn journal_identity(path: &str) -> Option<(u64, u64)> {
    let md = std::fs::metadata(path).ok()?;
    #[cfg(unix)]
    let ino = std::os::unix::fs::MetadataExt::ino(&md);
    #[cfg(not(unix))]
    let ino = 0;
    Some((ino, md.len()))
}

/// A journal from a different (or missing) schema family is an input
/// error: silently rendering zeros would look like a stalled run.
fn check_watch_schema(path: &str, state: &autoblox::WatchState) -> Result<(), CliError> {
    if state.schema_ok() {
        return Ok(());
    }
    Err(CliError::Input(format!(
        "{path}: unknown journal schema {:?} (expected autoblox.journal.v*)",
        state.journal_schema()
    )))
}

fn constraints_from(args: &[String]) -> Result<Constraints, CliError> {
    let capacity: u64 = parse_flag(args, "--capacity")?.unwrap_or(512);
    let power: f64 = parse_flag(args, "--power")?.unwrap_or(25.0);
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
    reference
}

fn cmd_tune(args: &[String]) -> Result<(), CliError> {
    let [workload, rest @ ..] = args else {
        return Err("tune needs <workload> [flags]".into());
    };
    let kind = parse_workload(workload).map_err(CliError::Usage)?;
    let constraints = constraints_from(rest)?;
    let iterations: usize = parse_flag(rest, "--iterations")?.unwrap_or(20);
    let trace_events: usize =
        parse_flag(rest, "--events")?.unwrap_or(ValidatorOptions::default().trace_events);
    let checkpoint_dir: Option<String> = parse_flag(rest, "--checkpoint")?;
    let checkpoint_every: u64 = parse_flag(rest, "--checkpoint-every")?.unwrap_or(1);
    if checkpoint_every == 0 {
        return Err("--checkpoint-every must be at least 1".into());
    }
    // Speculative batch width: `--speculate 0` (the default) means "one
    // candidate per worker thread that has a CPU to run on", which degrades
    // to sequential on one thread or one CPU: lookahead beyond the
    // machine's parallelism only queues simulator runs most of which are
    // never demanded. An explicit K is taken as given. Any k produces
    // byte-identical results; k only affects how much simulator work runs
    // ahead of demand.
    let speculate: usize = parse_flag(rest, "--speculate")?.unwrap_or(0);
    let speculative_batch = if speculate == 0 {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        autoblox::parallel::max_threads().min(cpus)
    } else {
        speculate
    };
    let resume = rest.iter().any(|a| a == "--resume");
    let stop_after: Option<u64> = parse_flag(rest, "--stop-after-iter")?;
    if stop_after == Some(0) {
        return Err("--stop-after-iter must be at least 1".into());
    }
    if (resume || stop_after.is_some()) && checkpoint_dir.is_none() {
        return Err("--resume and --stop-after-iter need --checkpoint <dir>".into());
    }
    let sinks = SinkConfig::from_args(rest)?;
    let recorder = RunRecorder::from_args(rest)?;
    let validator = Validator::new(ValidatorOptions {
        trace_events,
        ..ValidatorOptions::default()
    });
    let opts = TunerOptions {
        max_iterations: iterations,
        speculative_batch,
        non_target: WorkloadKind::STUDIED
            .iter()
            .copied()
            .filter(|&w| w != kind)
            .take(3)
            .collect(),
        ..TunerOptions::default()
    };
    let seed = opts.seed;
    let reference = reference_for(&constraints);
    let ckpt_path = match &checkpoint_dir {
        Some(dir) => {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create checkpoint dir {dir}: {e}"))?;
            Some(std::path::Path::new(dir).join(format!("checkpoint-{}.json", kind.name())))
        }
        None => None,
    };
    let sink = autoblox::telemetry::global();
    let tuner = Tuner::new(constraints, &validator, opts);
    let target = TuningTarget::Category(kind);
    let state = if resume {
        let path = ckpt_path.as_ref().expect("--resume implies --checkpoint");
        let cp = Checkpoint::read(path).map_err(CliError::Input)?;
        cp.verify(&tuner, target, &validator)
            .map_err(|e| CliError::Input(format!("cannot resume from {}: {e}", path.display())))?;
        validator.import_cache(&cp.cache).map_err(CliError::Input)?;
        eprintln!(
            "resuming {kind} from {} (iteration {}, {} observation(s))",
            path.display(),
            cp.state.iterations,
            cp.state.observations.len()
        );
        sink.record_checkpoint(
            &cp.state.workload,
            "resumed",
            cp.state.iterations,
            &path.display().to_string(),
        );
        cp.state
    } else {
        tuner.init_state(target, &reference, &[], None)
    };
    eprintln!("tuning {kind} for up to {iterations} iterations ...");
    let outcome = sink.phase("tune", || {
        tuner.drive(target, state, |s| {
            let Some(path) = &ckpt_path else { return };
            // `--stop-after-iter` only fires at outer-iteration boundaries
            // (`iterations` is 0 through both warm-up phases and N >= 1).
            let stop_now = stop_after.is_some_and(|n| s.iterations == n);
            let cadence = !s.done() && s.iterations % checkpoint_every == 0;
            if !stop_now && !cadence {
                return;
            }
            let cp = Checkpoint::capture(&tuner, target, &validator, s);
            match cp.write_atomic(path) {
                Ok(()) => {
                    sink.record_checkpoint(
                        &s.workload,
                        "written",
                        s.iterations,
                        &path.display().to_string(),
                    );
                    if stop_now {
                        eprintln!(
                            "stopped after iteration {} (checkpoint written to {})",
                            s.iterations,
                            path.display()
                        );
                        std::process::exit(0);
                    }
                }
                Err(e) => {
                    if stop_now {
                        eprintln!("error: {e}");
                        std::process::exit(1);
                    }
                    eprintln!("warning: {e}");
                }
            }
        })
    });
    sink.record_outcome(&outcome);
    // The run completed: the snapshot would only resume into a no-op, so
    // clean it up rather than leave a stale file to mis-resume from later.
    if let Some(path) = &ckpt_path {
        let _ = std::fs::remove_file(path);
    }
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
    if recorder.active() {
        recorder.record(
            "tune",
            kind.name(),
            constraints.family.label(),
            seed,
            outcome.best.grade,
            outcome.iterations as u64,
            &validator,
            &outcome.iteration_records,
        )?;
    }
    sinks.finish(&validator)?;
    Ok(())
}

fn cmd_checkpoint(args: &[String]) -> Result<(), CliError> {
    let [sub, rest @ ..] = args else {
        return Err("checkpoint needs: inspect <checkpoint.json> [--json]".into());
    };
    if sub != "inspect" {
        return Err(CliError::Usage(format!(
            "unknown checkpoint subcommand {sub:?} (expected `inspect`)"
        )));
    }
    let json_out = rest.iter().any(|a| a == "--json");
    let positional: Vec<&String> = rest.iter().filter(|a| *a != "--json").collect();
    let [path] = positional.as_slice() else {
        return Err("checkpoint inspect needs <checkpoint.json> [--json]".into());
    };
    let cp = Checkpoint::read(path).map_err(CliError::Input)?;
    let summary = cp.summary();
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    if json_out {
        let verdict = serde_json::json!({
            "path": path.to_string(),
            "valid": true,
            "summary": serde_json::to_value(&summary).map_err(|e| e.to_string())?,
        });
        println!(
            "{}",
            serde_json::to_string_pretty(&verdict).map_err(|e| e.to_string())?
        );
    } else {
        print!("{}", summary.render(now));
    }
    Ok(())
}

fn cmd_whatif(args: &[String]) -> Result<(), CliError> {
    let [workload, rest @ ..] = args else {
        return Err("whatif needs <workload> --goal latency|throughput --factor F".into());
    };
    let kind = parse_workload(workload).map_err(CliError::Usage)?;
    let factor: f64 = parse_flag(rest, "--factor")?.unwrap_or(3.0);
    let goal = match parse_flag::<String>(rest, "--goal")?.as_deref() {
        None | Some("latency") => WhatIfGoal::LatencyReduction(factor),
        Some("throughput") => WhatIfGoal::ThroughputImprovement(factor),
        Some(other) => return Err(CliError::Usage(format!("unknown goal {other:?}"))),
    };
    let constraints = constraints_from(rest)?;
    let trace_events: usize =
        parse_flag(rest, "--events")?.unwrap_or(ValidatorOptions::default().trace_events);
    let sinks = SinkConfig::from_args(rest)?;
    let recorder = RunRecorder::from_args(rest)?;
    let validator = Validator::new(ValidatorOptions {
        trace_events,
        ..ValidatorOptions::default()
    });
    let reference = reference_for(&constraints);
    eprintln!("running what-if analysis for {kind} ...");
    let sink = autoblox::telemetry::global();
    let out = sink.phase("whatif", || {
        what_if(
            kind,
            goal,
            constraints,
            &reference,
            &validator,
            WhatIfOptions::default(),
        )
    });
    sink.record_outcome(&out.tuning);
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
    if recorder.active() {
        recorder.record(
            "whatif",
            kind.name(),
            constraints.family.label(),
            TunerOptions::default().seed,
            out.tuning.best.grade,
            out.tuning.iterations as u64,
            &validator,
            &out.tuning.iteration_records,
        )?;
    }
    sinks.finish(&validator)?;
    Ok(())
}

fn cmd_place(args: &[String]) -> Result<(), CliError> {
    let devices: usize = parse_flag(args, "--devices")?
        .ok_or_else(|| CliError::Usage(String::from("place needs --devices <M>")))?;
    if devices == 0 {
        return Err(CliError::Usage(String::from(
            "--devices must be at least 1",
        )));
    }
    // `--traces` is repeatable and each occurrence is comma-separable; an
    // entry is either a generator spec (<workload>:<events>:<seed>) or a
    // trace file path.
    let mut entries: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--traces" {
            let value = args
                .get(i + 1)
                .ok_or_else(|| CliError::Usage(String::from("--traces needs a value")))?;
            entries.extend(
                value
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(String::from),
            );
            i += 2;
        } else {
            i += 1;
        }
    }
    if entries.is_empty() {
        return Err(CliError::Usage(String::from(
            "place needs --traces <spec|file>[,...]",
        )));
    }
    let constraints = constraints_from(args)?;
    let alpha: f64 = parse_flag(args, "--alpha")?.unwrap_or(autoblox::metrics::DEFAULT_ALPHA);
    if !(0.0..=1.0).contains(&alpha) {
        return Err(CliError::Usage(String::from("--alpha must be in [0, 1]")));
    }
    let rounds: usize = parse_flag(args, "--rounds")?.unwrap_or(16);
    let json_path: Option<String> = parse_flag(args, "--json")?;
    let db_path: Option<String> = parse_flag(args, "--db")?;
    let no_classify = args.iter().any(|a| a == "--no-classify");
    let sinks = SinkConfig::from_args(args)?;
    let recorder = RunRecorder::from_args(args)?;

    let db = match &db_path {
        Some(path) => Some(
            autodb::Store::open(path)
                .map_err(|e| CliError::Input(format!("cannot open store {path}: {e}")))?,
        ),
        None => None,
    };
    if let Some(db) = &db {
        let families =
            db.keys_with_prefix("category:").len() + db.keys_with_prefix("cluster:").len();
        eprintln!(
            "{} learned config famil{} available in {}",
            families,
            if families == 1 { "y" } else { "ies" },
            db_path.as_deref().unwrap_or("store"),
        );
    }

    // Tenant names are `t<i>:<label>`: unique per mix (the validator keys
    // its caches by trace name) and stable across runs.
    let mut tenants: Vec<std::sync::Arc<Trace>> = Vec::with_capacity(entries.len());
    for (i, entry) in entries.iter().enumerate() {
        let trace = match entry.parse::<iotrace::TenantSpec>() {
            Ok(spec) => spec.generate(format!("t{i}:{}", spec.kind.name())),
            Err(_) => {
                let raw = load_trace(entry, None).map_err(CliError::Input)?;
                let label = entry.rsplit('/').next().unwrap_or(entry);
                Trace::from_events(format!("t{i}:{label}"), raw.events().to_vec())
            }
        };
        tenants.push(std::sync::Arc::new(trace));
    }

    let fallback = reference_for(&constraints);
    let validator = Validator::new(ValidatorOptions::default());
    let opts = autoblox::place::PlacementOptions {
        devices,
        alpha,
        max_rounds: rounds,
        classify: !no_classify,
        ..Default::default()
    };
    eprintln!(
        "placing {} tenant(s) onto {} device(s) ...",
        tenants.len(),
        devices
    );
    let report = autoblox::place::place(&tenants, &fallback, db.as_ref(), &validator, &opts)
        .map_err(CliError::Other)?;

    // Human-oriented summary to stderr; the machine-readable report to
    // stdout (and to --json when given).
    for d in &report.device_reports {
        if d.tenants.is_empty() {
            eprintln!("device {}: idle", d.device);
        } else {
            eprintln!(
                "device {}: {} (cost {:.4}, config {}, bottleneck {})",
                d.device,
                d.tenants.join(" + "),
                d.cost,
                d.config_source,
                d.bottleneck.dominant(),
            );
        }
    }
    for t in &report.tenants {
        eprintln!(
            "  {} -> device {}: solo {:.0} ns, co-located {:.0} ns ({:+.1}% degradation)",
            t.name,
            t.device,
            t.solo_latency_ns,
            t.co_latency_ns,
            t.degradation_frac * 100.0,
        );
    }
    eprintln!(
        "greedy cost {:.4} -> final cost {:.4} after {} move(s) in {} round(s)",
        report.greedy_cost, report.final_cost, report.moves_applied, report.search_rounds,
    );
    let json = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
    if let Some(path) = &json_path {
        std::fs::write(path, &json).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("placement report written to {path}");
    }
    println!("{json}");
    if recorder.active() {
        // Placement has no tuning grade: the registry gets the negated
        // final placement cost so "higher is better" still holds for the
        // trend gate's grade-drop rule.
        let grade = -report.final_cost;
        match &db {
            Some(db) => recorder.record_with(
                db,
                "place",
                "place",
                constraints.family.label(),
                opts.train_seed,
                grade,
                report.search_rounds,
                &validator,
                &[],
            )?,
            None => recorder.record(
                "place",
                "place",
                constraints.family.label(),
                opts.train_seed,
                grade,
                report.search_rounds,
                &validator,
                &[],
            )?,
        }
    }
    sinks.finish(&validator)?;
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        return usage();
    };
    let rest = &args[1..];
    // `report diff`/`report trend` distinguish "regression/drift found"
    // (exit 3) from plain success/failure, so they return an ExitCode
    // directly.
    if command == "report" {
        return match cmd_report(rest) {
            Ok(code) => code,
            Err(err) => fail(err),
        };
    }
    let result = match command.as_str() {
        "generate" => cmd_generate(rest),
        "profile" => cmd_profile(rest),
        "classify" => cmd_classify(rest),
        "simulate" => cmd_simulate(rest),
        "tune" => cmd_tune(rest),
        "whatif" => cmd_whatif(rest),
        "place" => cmd_place(rest),
        "runs" => cmd_runs(rest),
        "watch" => cmd_watch(rest),
        "telemetry-check" => cmd_telemetry_check(rest),
        "checkpoint" => cmd_checkpoint(rest),
        "explain" => cmd_explain(rest),
        "inspect" => cmd_inspect(rest),
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
