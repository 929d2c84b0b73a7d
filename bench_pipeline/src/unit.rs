//! One unit of a workload: a fresh set-up followed by one pass over the
//! measured section, and the helpers every workload times its layer calls
//! with.

use crate::ledger::Ledger;
use crate::metrics::Values;
use std::path::PathBuf;
use std::time::Instant;
use telemetry::span::Span;

/// One consecutive piece of a unit's measured section: a pipeline stage, one
/// category's tune, one sweep cell. Every unit of a run cuts the same work
/// into the same pieces, so the harness can take each piece's best time.
#[derive(Debug, Clone, Copy)]
pub struct Piece {
    /// Host seconds the piece took.
    pub wall_s: f64,
    /// The part of it `sim_events_per_s` divides by: `Simulator::run` on
    /// `sim_sweep`, the whole piece on the tuning workloads.
    pub sim_s: f64,
}

impl Piece {
    /// A piece of a tuning workload: all of it counts.
    pub fn whole(wall_s: f64) -> Self {
        Piece {
            wall_s,
            sim_s: wall_s,
        }
    }
}

/// What one unit produced.
#[derive(Debug)]
pub struct Unit {
    /// Host seconds of each set-up the unit performed.
    pub setup_s: Vec<f64>,
    /// The measured section, piece by piece.
    pub pieces: Vec<Piece>,
    /// Trace events of charged simulator replays (`sim_events_per_s`'s
    /// numerator).
    pub sim_events: u64,
    /// Operations attempted: simulator runs plus one per pipeline stage.
    pub ops: u64,
    /// One line per failed operation or failed output check.
    pub failures: Vec<String>,
    /// FNV-1a over everything exact the unit computed.
    pub fingerprint: u64,
    /// Per-layer values: counts and simulated statistics always, host times
    /// of the layers when the unit was traced.
    pub layers: Values,
}

/// How big a workload's inputs are; `full` is what `BENCHMARK.json` runs,
/// `check` the smoke size.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Events of the target trace the two pipelines parse and classify.
    pub target_events: usize,
    /// Events per validation trace on the two pipelines.
    pub pipeline_events: usize,
    /// Outer-iteration cap of the pipelines' BO loop.
    pub pipeline_iterations: usize,
    /// Events per validation trace on `search_many_short`.
    pub search_events: usize,
    /// Outer iterations per category on `search_many_short`.
    pub search_iterations: usize,
    /// Divisor applied to every `sim_sweep` cell's event count.
    pub sweep_shrink: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        target_events: 10_000,
        pipeline_events: 5_000,
        pipeline_iterations: 20,
        search_events: 500,
        search_iterations: 89,
        sweep_shrink: 1,
    };

    pub const CHECK: Sizes = Sizes {
        target_events: 2_000,
        pipeline_events: 2_000,
        pipeline_iterations: 4,
        search_events: 2_000,
        search_iterations: 4,
        sweep_shrink: 8,
    };
}

/// Everything a unit needs from the harness.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    pub sizes: Sizes,
    /// Worker-pool width the harness pinned.
    pub threads: usize,
    /// Scratch directory inside the checkout, private to this process.
    pub dir: PathBuf,
}

/// Runs `f` under a span called `name` and returns its result with the host
/// seconds it took. The span only records while a traced unit is running.
pub fn timed<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let _span = Span::enter(name);
    clocked(f)
}

/// Runs `f` and returns its result with the host seconds it took.
pub fn clocked<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Set-ups per unit: all are timed, the last one is kept.
const SETUP_REPS: usize = 3;

/// Sets a unit up [`SETUP_REPS`] times, so that `setup_s` has several samples
/// per unit, and returns the last product with the host seconds of each.
pub fn set_up<T>(mut f: impl FnMut() -> T) -> (T, Vec<f64>) {
    let (mut products, seconds): (Vec<T>, Vec<f64>) =
        (0..SETUP_REPS).map(|_| clocked(&mut f)).unzip();
    (products.pop().expect("SETUP_REPS > 0"), seconds)
}

/// Brackets a unit's measured section. End-to-end numbers are measured with
/// the program's telemetry counters and span tracing both off; a traced unit
/// switches both on and ends with the ledger of the spans it closed.
pub struct Tracing {
    traced: bool,
    dropped_before: u64,
}

impl Tracing {
    pub fn start(traced: bool) -> Self {
        let dropped_before = telemetry::span::dropped_spans();
        telemetry::set_enabled(traced);
        telemetry::span::set_tracing(traced);
        Tracing {
            traced,
            dropped_before,
        }
    }

    /// Switches tracing off again. After a traced unit, drains the span
    /// ring into a ledger, writes the ledger's own health into `layers`, and
    /// returns it with whatever breaks the self-check: boundary spans
    /// covering under 98 % of the measured section, self times not summing
    /// to it within 2 %, or dropped spans.
    pub fn finish(self, layers: &mut Values) -> Option<(Ledger, Vec<String>)> {
        telemetry::set_enabled(false);
        telemetry::span::set_tracing(false);
        if !self.traced {
            return None;
        }
        let mut spans = Vec::new();
        telemetry::span::drain_spans(&mut spans);
        let ledger = Ledger::new(spans);
        let dropped = telemetry::span::dropped_spans() - self.dropped_before;

        let mut failures = Vec::new();
        layers.insert("telemetry.spans".into(), ledger.span_count() as f64);
        layers.insert("telemetry.spans_dropped".into(), dropped as f64);
        if dropped > 0 {
            failures.push(format!("ledger: {dropped} span(s) dropped by the ring"));
        }
        match ledger.blocking() {
            None => failures.push("ledger: the traced unit recorded no root span".into()),
            Some(b) => {
                layers.insert("ledger.coverage".into(), b.coverage());
                layers.insert("ledger.pool_blocked_s".into(), b.pool_blocked_s);
                if b.coverage() < 0.98 {
                    failures.push(format!(
                        "ledger: boundary spans cover {:.2} % of the measured section",
                        b.coverage() * 100.0
                    ));
                }
                if (b.accounted() - 1.0).abs() > 0.02 {
                    failures.push(format!(
                        "ledger: self times account for {:.2} % of the measured section",
                        b.accounted() * 100.0
                    ));
                }
            }
        }
        Some((ledger, failures))
    }
}
