//! The CLI contract: one table row per end-to-end claim about the
//! `autoblox` binary, each its own `#[test]`.
//!
//! A row is a command, or a short sequence sharing a scratch directory (a
//! `--db` store, a report fed to `explain`), run once per variant: one per
//! `AUTOBLOX_THREADS` width in `widths`. Per step `Row::run` checks the
//! exit code (a refusal, exit 2, prints nothing on stdout), stdout/stderr
//! substrings, that the step's `--telemetry` report passes
//! `RunReport::parse_checked`, and the report against a golden (see
//! [`assert_matches_golden`]). Across variants it checks the outputs a step
//! marks identical, the host-independent validator counters
//! (`simulator_runs`, `cache_misses`, `cache_hits + dedup_waits`) and the
//! tuner's iteration records with their wall-clock fields masked. What only
//! one row claims is asserted in its test after `Row::run` returned.

use autoblox::report::Summary;
use autoblox::telemetry::RunReport;
use autoblox::validator::ValidatorStats;
use ssdsim::config::{SsdConfig, MAX_PAGES_PER_BLOCK};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::Mutex;

/// One CLI invocation of a row, with what it must produce.
struct Step {
    /// Whitespace-separated arguments.
    args: String,
    exit: i32,
    /// Substrings stdout must contain.
    stdout: Vec<&'static str>,
    /// Substrings stderr must contain.
    stderr: Vec<&'static str>,
    /// Substrings neither stream may contain.
    absent: Vec<&'static str>,
    /// Stdout is byte-identical in every variant.
    same_stdout: bool,
    /// Scratch-directory files byte-identical in every variant.
    same_files: Vec<&'static str>,
    /// `scripts/golden/<name>.json`, which the step's telemetry must match.
    golden: Option<&'static str>,
}

/// A step that must exit 0 and expects nothing else.
fn step(args: &str) -> Step {
    Step {
        args: args.to_string(),
        exit: 0,
        stdout: Vec::new(),
        stderr: Vec::new(),
        absent: Vec::new(),
        same_stdout: false,
        same_files: Vec::new(),
        golden: None,
    }
}

struct Row {
    widths: &'static [usize],
    /// Input files written to the scratch directory before the first step.
    files: Vec<(&'static str, String)>,
    steps: Vec<Step>,
}

const ROW: Row = Row {
    widths: &[1],
    files: Vec::new(),
    steps: Vec::new(),
};

/// What one variant of a row produced. Dropping it removes its scratch
/// directory.
struct Variant {
    label: String,
    dir: PathBuf,
    /// One output per step.
    outputs: Vec<Output>,
    /// The telemetry report of each step that wrote one.
    reports: Vec<Option<RunReport>>,
}

impl Drop for Variant {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

impl Variant {
    fn stdout(&self, step: usize) -> String {
        String::from_utf8_lossy(&self.outputs[step].stdout).into_owned()
    }

    fn stderr(&self, step: usize) -> String {
        String::from_utf8_lossy(&self.outputs[step].stderr).into_owned()
    }

    fn read(&self, file: &str) -> String {
        std::fs::read_to_string(self.dir.join(file)).expect("row output exists")
    }

    fn validator(&self, step: usize) -> &ValidatorStats {
        &self.reports[step].as_ref().expect("telemetry").validator
    }

    fn summary(&self, step: usize) -> Summary {
        Summary::of(self.reports[step].as_ref().expect("telemetry"))
    }
}

/// `autoblox` with `AUTOBLOX_THREADS=threads`, run inside `dir`.
fn autoblox(dir: &Path, threads: usize, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_autoblox"))
        .current_dir(dir)
        .env("AUTOBLOX_THREADS", threads.to_string())
        .args(args)
        .output()
        .expect("binary runs")
}

/// The lowest ±1σ calibration coverage a tune may record (a
/// well-calibrated Gaussian surrogate covers ~68%).
const MIN_COVERAGE_1S: f64 = 0.45;

/// How far the validator cache hit rate may drop against the run it is
/// held to: how probes split between hits and in-flight dedup waits
/// depends on timing.
const MAX_HIT_RATE_DROP: f64 = 0.10;

/// `candidate` holds the calibration floor and keeps `baseline`'s cache
/// hit rate within [`MAX_HIT_RATE_DROP`].
fn assert_calibrated_and_cached(baseline: &Summary, candidate: &Summary, at: &str) {
    let c = &candidate.calibration;
    assert!(
        c.points == 0 || c.coverage_1s >= MIN_COVERAGE_1S,
        "{at}: ±1σ coverage {} under the floor",
        c.coverage_1s
    );
    let drop = baseline.cache_hit_rate - candidate.cache_hit_rate;
    assert!(
        drop <= MAX_HIT_RATE_DROP,
        "{at}: cache hit rate fell {drop}"
    );
}

/// The run summary of `report` against `scripts/golden/<name>.json`'s: the
/// best grade, the simulator runs, the p95/p99 latency, every bottleneck
/// share and the ±1σ calibration coverage are equal; wall clock is not
/// compared, and the cache hit rate only within its drop bound.
fn assert_matches_golden(name: &str, report: &RunReport, at: &str) {
    let path = format!(
        "{}/../../scripts/golden/{name}.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let golden: RunReport = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
    let (g, s) = (Summary::of(&golden), Summary::of(report));
    let at = format!("{at} against {name}");
    assert_eq!(s.best_grade, g.best_grade, "{at}: best grade");
    assert_eq!(s.simulator_runs, g.simulator_runs, "{at}: simulator runs");
    let tail = |s: &Summary| (s.latency_percentiles.p95_ns, s.latency_percentiles.p99_ns);
    assert_eq!(tail(&s), tail(&g), "{at}: p95/p99 latency");
    assert_eq!(
        s.bottleneck.fractions(),
        g.bottleneck.fractions(),
        "{at}: bottleneck shares"
    );
    assert_eq!(
        s.calibration.coverage_1s, g.calibration.coverage_1s,
        "{at}: ±1σ coverage"
    );
    assert_calibrated_and_cached(&g, &s, &at);
}

/// The counters and iteration records that must not depend on the width:
/// the hits/dedup split is timing-dependent, their sum is not.
fn deterministic_part(report: &RunReport) -> ([u64; 3], String) {
    let v = &report.validator;
    let mut tuner = report.tuner.clone();
    for record in tuner.iter_mut().flat_map(|run| &mut run.records) {
        record.wall_ns = 0;
        record.surrogate_fit_ns = 0;
    }
    let counters = [
        v.simulator_runs,
        v.cache_misses,
        v.cache_hits + v.dedup_waits,
    ];
    (counters, serde_json::to_string(&tuner).unwrap())
}

impl Row {
    /// Runs every variant and checks the table's expectations; returns the
    /// variants for the row's own assertions. `name` keys the scratch
    /// directories, so rows running concurrently must not share it.
    fn run(self, name: &str) -> Vec<Variant> {
        static NAMES: Mutex<BTreeSet<String>> = Mutex::new(BTreeSet::new());
        assert!(
            NAMES.lock().unwrap().insert(name.to_string()),
            "row {name} twice"
        );
        let mut variants: Vec<Variant> = Vec::new();
        for &threads in self.widths {
            let dir = std::env::temp_dir().join(format!(
                "abx-contract-{}-{name}-t{threads}",
                std::process::id()
            ));
            std::fs::remove_dir_all(&dir).ok();
            std::fs::create_dir_all(&dir).unwrap();
            for (file, contents) in &self.files {
                std::fs::write(dir.join(file), contents).unwrap();
            }
            let mut v = Variant {
                label: format!("{name} threads={threads}"),
                dir,
                outputs: Vec::new(),
                reports: Vec::new(),
            };
            for step in &self.steps {
                let args: Vec<&str> = step.args.split_whitespace().collect();
                let out = autoblox(&v.dir, threads, &args);
                let stdout = String::from_utf8_lossy(&out.stdout);
                let stderr = String::from_utf8_lossy(&out.stderr);
                let at = format!("{}: {args:?}", v.label);
                assert_eq!(out.status.code(), Some(step.exit), "{at}: {stderr}");
                assert!(step.exit != 2 || stdout.is_empty(), "{at} ran: {stdout}");
                for s in &step.stdout {
                    assert!(stdout.contains(s), "{at}: stdout lacks {s:?}: {stdout}");
                }
                for s in &step.stderr {
                    assert!(stderr.contains(s), "{at}: stderr lacks {s:?}: {stderr}");
                }
                for s in &step.absent {
                    assert!(!stdout.contains(s) && !stderr.contains(s), "{at}: {s:?}");
                }
                let tel = args.iter().position(|a| *a == "--telemetry");
                let report = tel.map(|i| {
                    let r = RunReport::parse_checked(&v.read(args[i + 1]))
                        .unwrap_or_else(|e| panic!("{at}: {e}"));
                    if let Some(name) = step.golden {
                        assert_matches_golden(name, &r, &at);
                    }
                    r
                });
                v.outputs.push(out);
                v.reports.push(report);
            }
            variants.push(v);
        }
        let first = &variants[0];
        for v in &variants[1..] {
            for (i, step) in self.steps.iter().enumerate() {
                let at = format!("{} vs {}: step {i}", v.label, first.label);
                if step.same_stdout {
                    assert_eq!(v.stdout(i), first.stdout(i), "{at}: stdout differs");
                }
                for file in &step.same_files {
                    assert_eq!(v.read(file), first.read(file), "{at}: {file} differs");
                }
                if let (Some(a), Some(b)) = (&v.reports[i], &first.reports[i]) {
                    let (a, b) = (deterministic_part(a), deterministic_part(b));
                    assert_eq!(a.0, b.0, "{at}: validator counters differ");
                    assert_eq!(a.1, b.1, "{at}: tuner records differ");
                }
            }
        }
        variants
    }
}

/// A tune at every width prints one configuration, matches the golden,
/// charges the same simulations and records the same surrogate trajectory.
/// That the model-observatory fields are real, not vacuous, is checked in
/// `model_obs.rs`.
#[test]
fn tune_is_identical_at_every_width() {
    let variants = Row {
        widths: &[1, 4],
        steps: vec![Step {
            same_stdout: true,
            golden: Some("telemetry-database"),
            ..step("tune database --iterations 3 --events 300 --telemetry tel.json")
        }],
        ..ROW
    }
    .run("tune");
    for v in &variants {
        assert!(v.validator(0).cache_misses > 0, "{}", v.label);
    }
}

/// The hybrid SLC/QLC family end to end: the same tuned configuration,
/// still hybrid, at every width, and the family golden.
#[test]
fn hybrid_tune_is_identical_at_every_width() {
    Row {
        widths: &[1, 4],
        steps: vec![Step {
            stdout: vec!["\"HybridSlcCache\""],
            same_stdout: true,
            golden: Some("family-smoke"),
            ..step(
                "tune database --iterations 3 --events 300 --flash qlc --family hybrid \
                 --telemetry tel.json",
            )
        }],
        ..ROW
    }
    .run("hybrid");
}

/// The same command run twice against one store prints the same
/// configuration at every width, the second run simulates nothing, and its
/// summary keeps the fresh run's best grade and ±1σ coverage.
#[test]
fn replay_is_byte_identical_at_every_width() {
    let tune = |tel| Step {
        same_stdout: true,
        ..step(&format!(
            "tune database --iterations 4 --events 300 --db m.db --telemetry {tel}"
        ))
    };
    let variants = Row {
        widths: &[1, 4],
        steps: vec![tune("fresh.json"), tune("replay.json")],
        ..ROW
    }
    .run("replay");
    for v in &variants {
        assert_eq!(v.stdout(0), v.stdout(1), "{}: replay differs", v.label);
        assert_eq!(v.validator(1).simulator_runs, 0, "{}", v.label);
        let runs = v.validator(0).simulator_runs;
        let stderr = v.stderr(1);
        let replayed = format!("{runs} validations, {runs} from the store");
        assert!(stderr.contains(&replayed), "{}: {stderr}", v.label);
        let (fresh, replay) = (v.summary(0), v.summary(1));
        assert_eq!(replay.best_grade, fresh.best_grade, "{}", v.label);
        assert_eq!(
            replay.calibration.coverage_1s, fresh.calibration.coverage_1s,
            "{}",
            v.label
        );
        assert_calibrated_and_cached(&fresh, &replay, &v.label);
    }
}

/// One report explained: `explain` renders the bottleneck shares and both
/// model views in text, and in JSON names both schemas.
#[test]
fn explain_renders_one_report() {
    let views = ["dominant", "calibration over", "decision timeline"];
    Row {
        steps: vec![
            step("tune database --iterations 6 --events 300 --telemetry cand.json"),
            Step {
                stdout: views.to_vec(),
                ..step("explain cand.json")
            },
            Step {
                stdout: vec![
                    "\"autoblox.explain.v3\"",
                    "\"autoblox.telemetry.v3\"",
                    "\"timeline\"",
                ],
                ..step("explain --json cand.json")
            },
        ],
        ..ROW
    }
    .run("explain");
}

/// `simulate fiu <cfg>` refuses a configuration the simulator cannot hold:
/// exit 2, `message` as the only stderr line, nothing simulated.
fn simulate_refuses(name: &str, cfg: SsdConfig, message: &'static str) {
    let variants = Row {
        files: vec![("config.json", serde_json::to_string(&cfg).unwrap())],
        steps: vec![Step {
            exit: 2,
            stderr: vec![message],
            ..step("simulate fiu config.json")
        }],
        ..ROW
    }
    .run(name);
    assert_eq!(variants[0].stderr(0).lines().count(), 1);
}

#[test]
fn simulate_refuses_a_config_whose_blocks_outgrow_the_valid_counter() {
    let cfg = SsdConfig {
        channel_count: 1,
        chips_per_channel: 1,
        dies_per_chip: 1,
        blocks_per_plane: 8,
        pages_per_block: MAX_PAGES_PER_BLOCK + 1,
        ..SsdConfig::default()
    };
    simulate_refuses("ppb", cfg, "pages_per_block must not exceed 65535");
}

// The three geometries below used to abort the process (a failed block-table
// allocation, exit 134) or panic on a wrapped plane count (exit 101).

#[test]
fn simulate_refuses_four_billion_blocks_per_plane() {
    let cfg = SsdConfig {
        blocks_per_plane: 4_000_000_000,
        ..SsdConfig::default()
    };
    simulate_refuses("bpp", cfg, "total blocks must not exceed 4294967295");
}

#[test]
fn simulate_refuses_a_plane_count_that_wraps() {
    let cfg = SsdConfig {
        channel_count: 4_000_000_000,
        chips_per_channel: 4_000_000_000,
        dies_per_chip: 4_000_000_000,
        planes_per_die: 4_000_000_000,
        ..SsdConfig::default()
    };
    simulate_refuses("planes", cfg, "total planes must not exceed 4294967295");
}

#[test]
fn simulate_refuses_more_blocks_than_a_u32_indexes() {
    let cfg = SsdConfig {
        channel_count: 65_536,
        blocks_per_plane: 65_536,
        ..SsdConfig::default()
    };
    simulate_refuses("blocks", cfg, "total blocks must not exceed 4294967295");
}

/// A trace whose line 2 is out of range is refused by `profile` and
/// `simulate` with one line naming that line — never a panic or a wrapped
/// number.
fn trace_refused(file: &'static str, contents: &str) {
    let refused = |command: &str| Step {
        exit: 2,
        stderr: vec!["line 2"],
        ..step(&format!("{command} {file}"))
    };
    let variants = Row {
        files: vec![(file, contents.to_string())],
        steps: vec![refused("profile"), refused("simulate")],
        ..ROW
    }
    .run(file);
    for step in 0..2 {
        assert_eq!(variants[0].stderr(step).lines().count(), 1);
    }
}

#[test]
fn zero_size_csv_event_is_refused() {
    trace_refused("zero.csv", "0,0,4096,R\n0,8,0,W\n");
}

#[test]
fn csv_lba_past_the_byte_address_space_is_refused() {
    trace_refused("lba.csv", "0,0,4096,R\n0,18446744073709551615,4096,R\n");
}

#[test]
fn blkparse_sector_count_past_u32_bytes_is_refused() {
    trace_refused("sectors.blk", "0.0 0 + 8 R\n0.0 0 + 4294967295 R\n");
}

#[test]
fn msr_ticks_too_far_apart_are_refused() {
    trace_refused(
        "ticks.msr",
        "0,h,0,Read,0,4096,1\n18446744073709551615,h,0,Read,0,4096,1\n",
    );
}

/// Each command exits 2 before anything runs, with `error: <message>` as
/// its first stderr line.
fn usage_errors(name: &str, cases: &[(&str, &str)]) {
    let steps = cases
        .iter()
        .map(|(args, _)| Step {
            exit: 2,
            ..step(args)
        })
        .collect();
    let variants = Row { steps, ..ROW }.run(name);
    for (i, (_, message)) in cases.iter().enumerate() {
        let stderr = variants[0].stderr(i);
        assert!(
            stderr.starts_with(&format!("error: {message}\n")),
            "{stderr}"
        );
    }
}

/// The retired checkpoint flags must not silently start a full tune.
#[test]
fn tune_rejects_unknown_flags_and_missing_values() {
    usage_errors(
        "tune-flags",
        &[
            (
                "tune database --events 60 --resume 1",
                "unknown tune flag \"--resume\"",
            ),
            (
                "tune database --events 60 --checkpoint 1",
                "unknown tune flag \"--checkpoint\"",
            ),
            (
                "tune database --events 60 --checkpoint-every 1",
                "unknown tune flag \"--checkpoint-every\"",
            ),
            (
                "tune database --events 60 --stop-after-iter 1",
                "unknown tune flag \"--stop-after-iter\"",
            ),
            ("tune database --iterations", "--iterations needs a value"),
        ],
    );
}

/// A capacity outside the reference preset's band rescales the preset
/// instead of refusing it, and the tuned configuration lands in the band;
/// a capacity no layout reaches is still one line, exit 2.
#[test]
fn tune_rescales_the_reference_to_the_capacity() {
    let tune = "tune database --events 50 --iterations 1 --capacity";
    let steps = vec![
        step(&format!("{tune} 256")),
        step(&format!("{tune} 2048")),
        Step {
            exit: 2,
            ..step(&format!("{tune} 16"))
        },
    ];
    let variants = Row { steps, ..ROW }.run("capacity");
    for (i, gib) in [(0, 256u64), (1, 2048)] {
        let best: SsdConfig = serde_json::from_str(&variants[0].stdout(i)).unwrap();
        let band = (gib << 30) as f64 * 0.75..=(gib << 30) as f64 * 1.25;
        let actual = best.effective_capacity_bytes();
        assert!(band.contains(&(actual as f64)), "{gib} GiB: {actual} B");
    }
    let stderr = variants[0].stderr(2);
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(
        stderr.starts_with("error: the reference configuration violates the constraints"),
        "{stderr}"
    );
}

#[test]
fn whatif_rejects_unknown_flags_and_missing_values() {
    usage_errors(
        "whatif-flags",
        &[
            (
                "whatif database --goal latency --itrations 2",
                "unknown whatif flag \"--itrations\"",
            ),
            ("whatif database --factor", "--factor needs a value"),
        ],
    );
}

/// Commands retired in earlier releases get the usage text like any
/// unknown command, and never run.
#[test]
fn retired_commands_print_usage() {
    let retired = |args, name| Step {
        exit: 2,
        absent: vec![name],
        ..step(args)
    };
    let variants = Row {
        steps: vec![
            retired("checkpoint inspect checkpoint-Database.json", "checkpoint"),
            retired("place --devices 2 --traces Database:100:1", "place"),
        ],
        ..ROW
    }
    .run("retired");
    for i in 0..2 {
        let stderr = variants[0].stderr(i);
        assert!(stderr.starts_with("usage: autoblox <command>"), "{stderr}");
    }
}
