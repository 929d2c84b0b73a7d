//! Automated tuning of SSD configurations (§3.4): the customized Bayesian
//! optimization loop combining discrete SGD-style neighborhood search, GPR
//! grade prediction, constraint repair, and simulator validation.
//!
//! [`Tuner::tune`] is one plain loop: measure the reference, validate the
//! initial set, then one simulator-validated outer iteration at a time
//! until convergence or the cap. Every random draw comes from one RNG
//! seeded by the options and the target, and every measurement is a pure
//! function of (configuration, trace), so re-running a problem replays its
//! trajectory bit for bit — against a validator with an attached store,
//! simulating only what no earlier run paid for.

use crate::constraints::Constraints;
use crate::journal::JournalLine;
use crate::metrics::{grade, performance, Measurement};
use crate::params::ParamSpace;
use crate::validator::Validator;
use iotrace::gen::WorkloadKind;
use iotrace::Trace;
use mlkit::gpr::{Gpr, GprBuilder};
use mlkit::linalg::Matrix;
use mlkit::nn::{Mlp, TrainOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use ssdsim::config::SsdConfig;
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

/// The surrogate model predicting configuration grades in the search loop.
///
/// The paper's customized BO uses Gaussian-process regression and argues it
/// matches deep-neural-network surrogates at lower cost (§3.2); `Neural`
/// provides that comparison point and `Random` removes the surrogate
/// entirely (see the `ablation_surrogates` experiment).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SurrogateKind {
    /// Gaussian-process regression (the paper's choice).
    #[default]
    Gpr,
    /// A small MLP regressor retrained each iteration (DQN-style value
    /// network stand-in).
    Neural,
    /// No model: candidates are proposed pseudo-randomly.
    Random,
}

/// Options controlling the tuning loop; defaults mirror the paper. The
/// search trajectory is a function of every field but `speculative_batch`,
/// which nothing reads.
#[derive(Debug, Clone, PartialEq)]
pub struct TunerOptions {
    /// Latency/throughput balance (Formula 1).
    pub alpha: f64,
    /// Target/non-target penalty balance (Formula 2).
    pub beta: f64,
    /// Maximum outer search iterations (each ends in one validation).
    pub max_iterations: usize,
    /// Maximum SGD moves per outer iteration (10 in the paper).
    pub sgd_iterations: usize,
    /// Manhattan-distance exploration bound from the validated set (5).
    pub manhattan_limit: u64,
    /// Size of the elite set the search root is sampled from (3).
    pub top_k: usize,
    /// Convergence: stop when the best grade moved less than
    /// `convergence_epsilon` (relative) over this many iterations.
    pub convergence_window: usize,
    /// Relative grade-change bound for convergence (±1%).
    pub convergence_epsilon: f64,
    /// When `true`, neighbor moves follow the pruning-derived tuning order
    /// and only the leading parameters are explored per step (§3.3/Fig. 9).
    pub use_tuning_order: bool,
    /// When `true`, skip non-target validation for configurations whose
    /// target-only grade cannot beat the current elite set (§3.4).
    pub validation_pruning: bool,
    /// Which surrogate predicts candidate grades during the SGD walk.
    pub surrogate: SurrogateKind,
    /// When `true`, the flash timing parameters (read/program/erase
    /// latency) may be tuned within their technology-relative bounds. Off
    /// by default: normal tuning treats chip timings as fixed by the flash
    /// type; the what-if analysis of §4.5 unlocks them.
    pub explore_flash_timing: bool,
    /// Non-target workload clusters graded alongside the target.
    pub non_target: Vec<WorkloadKind>,
    /// RNG seed for root selection.
    pub seed: u64,
    /// Inert; kept until a `benchmark` PR retires it (ROADMAP 7(d)).
    pub speculative_batch: usize,
}

impl Default for TunerOptions {
    fn default() -> Self {
        TunerOptions {
            alpha: crate::metrics::DEFAULT_ALPHA,
            beta: crate::metrics::DEFAULT_BETA,
            max_iterations: 40,
            sgd_iterations: 10,
            manhattan_limit: 5,
            top_k: 3,
            convergence_window: 6,
            convergence_epsilon: 0.01,
            use_tuning_order: true,
            validation_pruning: true,
            surrogate: SurrogateKind::default(),
            explore_flash_timing: false,
            non_target: Vec::new(),
            seed: 0xA070,
            speculative_batch: 1,
        }
    }
}

/// A validated configuration with its grade.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GradedConfig {
    /// The configuration.
    pub config: SsdConfig,
    /// Formula-2 grade relative to the reference.
    pub grade: f64,
    /// Formula-1 target-workload performance component.
    pub target_performance: f64,
    /// Measurement on the target workload.
    pub measurement: Measurement,
}

/// Per-iteration diagnostics from the outer BO loop.
///
/// Every field but the two timings is thread-invariant: deterministic for a
/// given tuning problem at any thread count. `surrogate_fit_ns` and
/// `wall_ns` are collected, and `kernel_length_scale` is read, only while
/// telemetry is enabled, and are `0` otherwise — so serialized outcomes stay
/// byte-identical across thread counts at either setting.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct IterationRecord {
    /// 1-based outer-iteration index.
    pub iteration: u64,
    /// Neighbor candidates scored by the surrogate across the SGD walk.
    pub candidates_considered: u64,
    /// SGD steps taken before the walk stopped.
    pub sgd_steps: u64,
    /// Time spent fitting the surrogate, ns (0 when telemetry is off).
    pub surrogate_fit_ns: u64,
    /// Manhattan distance from the search root to the validated candidate.
    pub exploration_distance: u64,
    /// Best grade in the validated set after this iteration.
    pub best_grade: f64,
    /// Relative grade spread over the convergence window, or `-1.0` while
    /// the window has not filled yet.
    pub convergence_delta: f64,
    /// Simulator runs this iteration triggered (0 on a full cache hit).
    pub validations: u64,
    /// Wall-clock time of the iteration, ns (0 when telemetry is off).
    pub wall_ns: u64,
    /// Bottleneck fingerprint of the simulator work this iteration performed
    /// (all zeros when telemetry is off or the iteration was a full cache
    /// hit). Deterministic for a given tuning problem at any thread count.
    pub bottleneck: ssdsim::BottleneckReport,
    /// Surrogate's predicted grade mean for the chosen candidate, read
    /// before validation (0 when no surrogate scored it).
    pub predicted_mean: f64,
    /// Surrogate's predicted grade standard deviation for the chosen
    /// candidate (0 for the variance-free surrogates).
    pub predicted_std: f64,
    /// Whether this iteration produced a calibration pair: a surrogate
    /// prediction for the chosen candidate *and* a realized grade from its
    /// validation (power-rejected or already-seen candidates realize none).
    pub calibrated: bool,
    /// Grade validation realized for the chosen candidate (meaningful only
    /// when `calibrated`).
    pub realized_grade: f64,
    /// Exploration share of the chosen UCB: `σ / (|μ| + σ)` at β = 1
    /// (0 when nothing was predicted).
    pub explore_share: f64,
    /// Exploitation share of the chosen UCB: `|μ| / (|μ| + σ)`.
    pub exploit_share: f64,
    /// Chosen candidate's UCB minus the runner-up's (0 without one).
    pub decision_margin: f64,
    /// Lengthscale of the fitted GPR kernel (`exp` of its first
    /// log-parameter; 0 when no GPR was fitted or telemetry was off).
    pub kernel_length_scale: f64,
}

impl IterationRecord {
    /// Whether any model field is set, i.e. the iteration has a `model`
    /// journal line.
    pub(crate) fn has_model(&self) -> bool {
        self.predicted_mean != 0.0
            || self.predicted_std != 0.0
            || self.calibrated
            || self.realized_grade != 0.0
            || self.explore_share != 0.0
            || self.exploit_share != 0.0
            || self.decision_margin != 0.0
            || self.kernel_length_scale != 0.0
    }
}

/// Result of one tuning run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TuningOutcome {
    /// The target workload.
    pub workload: String,
    /// Best configuration found.
    pub best: GradedConfig,
    /// Reference measurement of the target workload on the baseline.
    pub reference: Measurement,
    /// Best-so-far grade after each outer iteration (Figure 10's curve).
    pub grade_history: Vec<f64>,
    /// Outer iterations executed before convergence or cap.
    pub iterations: usize,
    /// Simulator validations actually performed.
    pub validations: u64,
    /// Per-iteration diagnostics (one entry per outer iteration).
    pub iteration_records: Vec<IterationRecord>,
}

/// One validated point of the search: a grid vector, its normalized
/// (surrogate-input) form, and the Formula-2 grade.
#[derive(Debug)]
struct Observation {
    vector: Vec<usize>,
    normalized: Vec<f64>,
    grade: f64,
}

/// Everything the tuning loop carries between iterations.
#[derive(Debug)]
struct TuneState {
    /// The pinned, constraint-checked reference configuration.
    reference: SsdConfig,
    /// Reference measurement on the target workload.
    ref_target: Measurement,
    /// Reference measurements of the non-target workloads.
    ref_non: Vec<(WorkloadKind, Measurement)>,
    /// Validated observations, in validation order (GPR training set).
    observations: Vec<Observation>,
    /// Grid vectors already validated or rejected.
    seen: BTreeSet<Vec<usize>>,
    best: Option<GradedConfig>,
    /// Resolved parameter exploration order (indices into the space).
    order_indices: Vec<usize>,
    /// Whether an explicit pruning-derived order is in effect.
    explicit_order: bool,
    /// Best-so-far grade after the init set and after each iteration.
    grade_history: Vec<f64>,
    iterations: u64,
    records: Vec<IterationRecord>,
    /// The GPR surrogate grown over `observations`: the model fitted on
    /// the first `.0` of them (see [`GPR_RETUNE_EVERY`]).
    gpr_chain: Option<(usize, Gpr)>,
}

impl TuneState {
    /// Best grade over the validated set so far.
    fn best_grade(&self) -> f64 {
        self.observations
            .iter()
            .map(|o| o.grade)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Indices of the top-`k` observations by grade (stable order on ties).
    fn elite(&self, k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.observations.len()).collect();
        idx.sort_by(|&a, &b| {
            self.observations[b]
                .grade
                .partial_cmp(&self.observations[a].grade)
                .expect("finite grades")
        });
        idx.truncate(k);
        idx
    }

    fn worst_elite_grade(&self, k: usize) -> f64 {
        let elite = self.elite(k);
        elite
            .last()
            .map(|&i| self.observations[i].grade)
            .unwrap_or(f64::NEG_INFINITY)
    }

    fn min_manhattan(&self, space: &ParamSpace, vec: &[usize]) -> u64 {
        self.observations
            .iter()
            .map(|o| space.manhattan(&o.vector, vec))
            .min()
            .unwrap_or(0)
    }
}

/// What the tuner optimizes for: a named workload category (validation
/// traces are generated) or a concrete trace (e.g. a new workload that did
/// not match any cluster).
#[derive(Debug, Clone, Copy)]
pub enum TuningTarget<'t> {
    /// A studied workload category.
    Category(WorkloadKind),
    /// A caller-supplied block I/O trace.
    Trace(&'t Trace),
}

impl TuningTarget<'_> {
    /// Display name of the target.
    pub fn name(&self) -> &str {
        match self {
            TuningTarget::Category(k) => k.name(),
            TuningTarget::Trace(t) => t.name(),
        }
    }
}

impl From<WorkloadKind> for TuningTarget<'static> {
    fn from(k: WorkloadKind) -> Self {
        TuningTarget::Category(k)
    }
}

/// How often the GPR surrogate's hyperparameters are re-tuned from scratch.
///
/// Between scheduled full fits the model is grown by one rank-1
/// [`Gpr::extend`] per new observation — O(n²) instead of the O(n³)
/// refactorization — keeping the hyperparameters frozen at the last
/// scheduled fit. The schedule is a pure function of the observation count,
/// so when an iteration validates past a scheduled count the chain restarts
/// identically: full fit on the last scheduled prefix, then the same
/// extends.
const GPR_RETUNE_EVERY: usize = 16;

/// The surrogate's training set: normalized vectors as rows, and grades.
fn design(observations: &[Observation]) -> (Matrix, Vec<f64>) {
    let rows: Vec<Vec<f64>> = observations.iter().map(|o| o.normalized.clone()).collect();
    let ys = observations.iter().map(|o| o.grade).collect();
    (Matrix::from_rows(&rows), ys)
}

/// A surrogate's score of one candidate: `(acquisition value, predicted
/// mean, predicted standard deviation)`.
type Score = (f64, f64, f64);

/// A grid vector packed one byte per index and zero-padded, the walk
/// memo's key. It compares in the vector's order, hashes as 9 words instead
/// of 51, and lives inline in the memo: scoring a candidate allocates
/// nothing that outlives its pool item.
type Packed = [u8; 64];

/// Surrogate scores memoized across one SGD walk, keyed by [`pack`]ed
/// grid vector.
type Memo = HashMap<Packed, Score, BuildHasherDefault<WordHasher>>;

/// Packs a grid vector (the catalog has 51 parameters, each grid far fewer
/// than 256 points).
fn pack(v: &[usize]) -> Packed {
    let mut key = [0; 64];
    assert!(v.len() <= key.len(), "a grid vector fits a packed key");
    for (k, &i) in key.iter_mut().zip(v) {
        *k = u8::try_from(i).expect("a grid index fits a byte");
    }
    key
}

/// The first `len` indices of a [`pack`]ed vector.
fn unpack(key: &Packed, len: usize) -> Vec<usize> {
    key[..len].iter().map(|&i| usize::from(i)).collect()
}

/// The walk memo's hash: multiply-rotate over the 8-byte words of a packed
/// vector. With no random key the memo's iteration order is a pure function
/// of its inserts; its keys are built by the program, never read from
/// input, so a key crafted to collide cannot reach it.
#[derive(Default)]
struct WordHasher(u64);

impl Hasher for WordHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }
}

/// What a walk step found over some of its candidates: the pool item of
/// one run of parameters, or the whole step once the items are merged.
#[derive(Debug, Default)]
struct StepPicks {
    /// The smallest candidate vector, with its score.
    first: Option<(Packed, Score)>,
    /// The highest non-NaN acquisition value, the smaller vector on a tie.
    best: Option<(Packed, Score)>,
}

impl StepPicks {
    /// Folds one scored candidate in.
    fn consider(&mut self, cand: Packed, s: Score) {
        if self.first.is_none_or(|(v, _)| cand < v) {
            self.first = Some((cand, s));
        }
        let better = |(v, b): (Packed, Score)| s.0 > b.0 || (s.0 == b.0 && cand < v);
        if !s.0.is_nan() && self.best.is_none_or(better) {
            self.best = Some((cand, s));
        }
    }

    /// The candidate a strict-`>` argmax over the ascending candidate order
    /// picks, as a vector of `len` indices: the smallest one when its value
    /// is NaN (nothing compares greater), otherwise the highest non-NaN
    /// value, the smallest vector on a tie. `None` when no candidate was
    /// considered.
    fn pick(self, len: usize) -> Option<(Vec<usize>, Score)> {
        let (v, s) = match self.first {
            Some(first) if first.1 .0.is_nan() => first,
            first => self.best.or(first)?,
        };
        Some((unpack(&v, len), s))
    }
}

/// Fewest neighbours a walk step splits across the pool. Below it, waking
/// a helper costs more than the half step it takes over: the pruned
/// twelve-knob walk of `tune_read_homog` took 4.1 ms split and 2.0 ms
/// whole (traced, 2 CPUs), while the full-space steps of
/// `search_many_short` (about 90 neighbours) halve.
const MIN_SPLIT_NEIGHBOURS: usize = 64;

/// Splits `params` into at most `runs` contiguous runs of roughly equal
/// total weight, `weights[i]` being the weight of `params[i]`.
fn split_runs<'p>(params: &'p [usize], weights: &[usize], runs: usize) -> Vec<&'p [usize]> {
    let total: usize = weights.iter().sum();
    let mut out = Vec::with_capacity(runs);
    let (mut start, mut acc) = (0, 0);
    for (i, &w) in weights.iter().enumerate() {
        acc += w;
        // Close a run once it holds its share of the total weight.
        if out.len() + 1 < runs && acc * runs >= total * (out.len() + 1) {
            out.push(&params[start..=i]);
            start = i + 1;
        }
    }
    out.push(&params[start..]);
    out
}

/// A fitted grade surrogate used inside one search iteration.
#[derive(Debug)]
enum FittedSurrogate {
    Gpr(Gpr),
    Neural(Mlp),
}

impl FittedSurrogate {
    /// Returns the [`Score`] of each row of `points`; a failed prediction
    /// scores `(-inf, -inf, 0)`.
    fn predict_batch(&self, points: &Matrix) -> Vec<Score> {
        match self {
            FittedSurrogate::Gpr(g) => match g.predict_batch(points) {
                Ok(batch) => batch
                    .iter()
                    .map(|p| (p.ucb(1.0), p.mean, p.std_dev()))
                    .collect(),
                Err(_) => vec![(f64::NEG_INFINITY, f64::NEG_INFINITY, 0.0); points.rows()],
            },
            // The MLP has no predictive variance: acquisition = mean.
            FittedSurrogate::Neural(net) => (0..points.rows())
                .map(|r| {
                    let mean = net.predict(points.row(r)).unwrap_or(f64::NEG_INFINITY);
                    (mean, mean, 0.0)
                })
                .collect(),
        }
    }

    /// Lengthscale of the fitted GPR kernel (`exp` of its first
    /// log-parameter); 0 for the variance-free surrogates.
    fn length_scale(&self) -> f64 {
        match self {
            FittedSurrogate::Gpr(g) => g.kernel().params()[0].exp(),
            FittedSurrogate::Neural(_) => 0.0,
        }
    }
}

/// The automated configuration tuner.
#[derive(Debug)]
pub struct Tuner<'a> {
    space: ParamSpace,
    constraints: Constraints,
    validator: &'a Validator,
    opts: TunerOptions,
    /// Indices in `space` of the parameters the walk never moves: interface
    /// and flash technology, plus the flash timings unless
    /// `explore_flash_timing`.
    pinned: Vec<usize>,
}

impl<'a> Tuner<'a> {
    /// Creates a tuner over the full parameter space.
    pub fn new(constraints: Constraints, validator: &'a Validator, opts: TunerOptions) -> Self {
        let space = ParamSpace::new();
        Tuner {
            pinned: Self::pinned_indices(&space, &opts),
            space,
            constraints,
            validator,
            opts,
        }
    }

    /// Replaces the parameter space (e.g. a pruned one).
    pub fn with_space(mut self, space: ParamSpace) -> Self {
        self.pinned = Self::pinned_indices(&space, &self.opts);
        self.space = space;
        self
    }

    fn pinned_indices(space: &ParamSpace, opts: &TunerOptions) -> Vec<usize> {
        let timing: &[&str] = if opts.explore_flash_timing {
            &[]
        } else {
            &["read_latency", "program_latency", "erase_latency"]
        };
        ["interface", "flash_technology"]
            .iter()
            .chain(timing)
            .filter_map(|n| space.index_of(n))
            .collect()
    }

    /// The parameter space in use.
    pub fn space(&self) -> &ParamSpace {
        &self.space
    }

    /// The options the tuner runs with.
    pub fn options(&self) -> &TunerOptions {
        &self.opts
    }

    /// The constraints the tuner searches under.
    pub fn constraints(&self) -> &Constraints {
        &self.constraints
    }

    /// Runs the full tuning workflow for `target`, starting from the
    /// `reference` commodity configuration plus any `initial` configurations
    /// recalled from AutoDB, optionally following a pruning-derived
    /// `tuning_order` (parameter names, most important first): measure the
    /// reference, validate the initial set, then iterate until convergence
    /// or the iteration cap.
    ///
    /// # Panics
    ///
    /// Panics where [`Tuner::try_tune`] returns an error — the caller must
    /// pass a baseline consistent with `set_cons`.
    pub fn tune<'t>(
        &self,
        target: impl Into<TuningTarget<'t>>,
        reference: &SsdConfig,
        initial: &[SsdConfig],
        tuning_order: Option<&[&str]>,
    ) -> TuningOutcome {
        self.try_tune(target, reference, initial, tuning_order)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Tuner::tune`] for constraints that may admit no answer.
    ///
    /// # Errors
    ///
    /// Returns a one-line description, before any simulation, when the
    /// pinned reference violates the structural constraints, and after
    /// the initial set when no configuration of it met the power budget
    /// (the search has nothing to start from).
    pub fn try_tune<'t>(
        &self,
        target: impl Into<TuningTarget<'t>>,
        reference: &SsdConfig,
        initial: &[SsdConfig],
        tuning_order: Option<&[&str]>,
    ) -> Result<TuningOutcome, String> {
        let target = target.into();
        let runs_before = self.validator.simulator_runs();
        let state = self.run(target, reference, initial, tuning_order)?;
        let outcome = TuningOutcome {
            workload: target.name().to_string(),
            best: state
                .best
                .expect("the initial set validated a configuration"),
            reference: state.ref_target,
            grade_history: state.grade_history,
            iterations: state.iterations as usize,
            validations: self.validator.simulator_runs() - runs_before,
            iteration_records: state.records,
        };
        crate::telemetry::global().push(|| JournalLine::Tune((&outcome).into()));
        Ok(outcome)
    }

    /// The loop behind [`Tuner::try_tune`], returning its final state.
    fn run(
        &self,
        target: TuningTarget<'_>,
        reference: &SsdConfig,
        initial: &[SsdConfig],
        tuning_order: Option<&[&str]>,
    ) -> Result<TuneState, String> {
        let _tune_span = telemetry::span::Span::enter_keyed(
            "tuner.tune",
            telemetry::span::key_str(target.name()),
        );
        let mut reference = reference.clone();
        self.constraints.pin(&mut reference);
        self.constraints
            .check_structural(&reference)
            .map_err(|v| format!("the reference configuration violates the constraints: {v}"))?;
        let mut rng = StdRng::seed_from_u64(
            self.opts.seed ^ target.name().bytes().map(u64::from).sum::<u64>(),
        );
        let (ref_target, ref_non) = self.measure_reference(target, &reference);
        let (order_indices, explicit_order) = self.order_indices(tuning_order);
        // Initialize with the reference and any AutoDB recalls (step 1).
        let init_set: Vec<SsdConfig> = std::iter::once(reference.clone())
            .chain(initial.iter().cloned())
            .collect();
        let mut state = TuneState {
            reference,
            ref_target,
            ref_non,
            observations: Vec::new(),
            seen: BTreeSet::new(),
            best: None,
            order_indices,
            explicit_order,
            grade_history: Vec::new(),
            iterations: 0,
            records: Vec::new(),
            gpr_chain: None,
        };
        self.validate_init_set(target, &mut state, &init_set);
        if state.observations.is_empty() {
            return Err(format!(
                "no configuration met the {} W power budget (the reference draws {:.3} W)",
                self.constraints.power_budget_w, state.ref_target.power_w
            ));
        }
        let mut done = self.opts.max_iterations == 0;
        while !done {
            done = self.iterate(target, &mut state, &mut rng);
        }
        Ok(state)
    }

    /// Measures the reference on the target and every non-target workload.
    fn measure_reference(
        &self,
        target: TuningTarget<'_>,
        reference: &SsdConfig,
    ) -> (Measurement, Vec<(WorkloadKind, Measurement)>) {
        let _ref_span = telemetry::span::Span::enter("tuner.reference");
        // Reference measurements: the target and every non-target workload
        // are independent simulator runs, evaluated on the worker pool. The
        // validator memoizes deterministically and `parallel_map` preserves
        // order, so the outcome is identical to the sequential loop.
        let non_kinds: Vec<WorkloadKind> = self
            .opts
            .non_target
            .iter()
            .filter(|&&w| !matches!(target, TuningTarget::Category(k) if k == w))
            .copied()
            .collect();
        let mut ref_jobs: Vec<Option<WorkloadKind>> = vec![None];
        ref_jobs.extend(non_kinds.iter().copied().map(Some));
        let mut ref_meas = mlkit::parallel::parallel_map(ref_jobs, |w| match w {
            None => self.eval_target(reference, target),
            Some(k) => self.validator.evaluate(reference, k),
        })
        .into_iter();
        let ref_target = ref_meas.next().expect("target measurement");
        (ref_target, non_kinds.into_iter().zip(ref_meas).collect())
    }

    /// Validates the initial configuration set.
    fn validate_init_set(
        &self,
        target: TuningTarget<'_>,
        state: &mut TuneState,
        init_set: &[SsdConfig],
    ) {
        let init_span = telemetry::span::Span::enter("tuner.init_set");
        let prepared: Vec<SsdConfig> = init_set
            .iter()
            .filter_map(|cfg| {
                let mut cfg = cfg.clone();
                self.constraints.pin(&mut cfg);
                self.constraints
                    .check_structural(&cfg)
                    .is_ok()
                    .then_some(cfg)
            })
            .collect();
        // Warm the measurement cache for the whole init set in parallel —
        // exactly the evaluations the sequential validation below performs
        // (non-targets only for configurations inside the power budget), so
        // the simulator-run count and every grade match a sequential run.
        let init_meas =
            mlkit::parallel::parallel_map(prepared.clone(), |cfg| self.eval_target(&cfg, target));
        let mut non_jobs: Vec<(SsdConfig, WorkloadKind)> = Vec::new();
        for (cfg, m) in prepared.iter().zip(&init_meas) {
            if self.constraints.check_power(m.power_w) {
                non_jobs.extend(state.ref_non.iter().map(|&(kind, _)| (cfg.clone(), kind)));
            }
        }
        mlkit::parallel::parallel_map(non_jobs, |(cfg, w)| self.validator.evaluate(&cfg, w));
        for cfg in &prepared {
            self.validate_into(cfg, target, state, false);
        }
        drop(init_span);
        state.grade_history.push(state.best_grade());
    }

    /// One outer BO iteration — pick a root, fit the surrogate, walk,
    /// validate, check convergence. Returns whether the search is done
    /// (converged or at the iteration cap).
    ///
    /// The outer loop is sequential, as in the paper (§3.4): iteration N's
    /// surrogate is fitted on every validation from iterations 0..N-1, a
    /// strict data dependency, and each iteration validates one candidate.
    /// The pool shortens a step (the walk's neighbour scoring, a
    /// validation's two replays), never the loop; identical results at any
    /// thread count is a design invariant.
    fn iterate(&self, target: TuningTarget<'_>, state: &mut TuneState, rng: &mut StdRng) -> bool {
        state.iterations += 1;
        // Keyed by the iteration index: the loop is sequential, but a
        // content key keeps the id independent of any earlier spans.
        let _iter_span = telemetry::span::Span::enter_keyed("tuner.iteration", state.iterations);
        let iter_start = telemetry::start();
        let runs_at_iter_start = self.validator.simulator_runs();
        let agg_at_iter_start = telemetry::enabled().then(|| self.validator.sim_aggregate());
        // Step 3: pick the search root among the top-k elite at random.
        let elite = state.elite(self.opts.top_k);
        let root_i = elite[rng.gen_range(0..elite.len())];
        let root_vec = state.observations[root_i].vector.clone();
        let mut cur = root_vec.clone();
        let mut cur_pred = state.observations[root_i].grade;

        // Step 4: the surrogate fitted on the validated set predicts
        // candidate grades.
        let fit_start = telemetry::start();
        let fit_span = telemetry::span::Span::enter("tuner.fit_surrogate");
        let surrogate = self.fit_surrogate(state);
        drop(fit_span);
        let surrogate_fit_ns = telemetry::elapsed_ns(fit_start);

        // The SGD walk keeps moving while the predicted mean improves;
        // whatever candidate it last considered gets validated, so every
        // outer iteration contributes one new measurement (exploration
        // never stalls on a pessimistic surrogate).
        let mut chosen: Option<Vec<usize>> = None;
        let mut sgd_steps: u64 = 0;
        let mut candidates_considered: u64 = 0;
        // Surrogate scores memoized across the walk: neighbor sets of
        // consecutive positions overlap heavily, and a revisited candidate
        // costs one map probe instead of a second prediction.
        // `candidates_considered` counts unique configurations accordingly.
        let mut scored = Memo::default();
        let sgd_span = telemetry::span::Span::enter("tuner.sgd_walk");
        for _ in 0..self.opts.sgd_iterations {
            sgd_steps += 1;
            let pick = match &surrogate {
                Some(model) => {
                    self.walk_step(state, &cur, model, &mut scored, &mut candidates_considered)
                }
                None => self.random_step(state, &cur, rng, &mut scored, &mut candidates_considered),
            };
            let Some((cand, (_ucb, mean, _std))) = pick else {
                break;
            };
            chosen = Some(cand.clone());
            if mean <= cur_pred {
                break;
            }
            cur = cand;
            cur_pred = mean;
            // Heuristic exploration bound (minimum Manhattan distance).
            if state.min_manhattan(&self.space, &cur) >= self.opts.manhattan_limit {
                break;
            }
        }
        drop(sgd_span);

        // Model observatory: read the surrogate's beliefs about the chosen
        // candidate. Every value here is a pure function of the
        // deterministic observation stream (no RNG, no clocks), so
        // fingerprints stay bit-identical at any thread count.
        let mut predicted_mean = 0.0;
        let mut predicted_std = 0.0;
        let mut explore_share = 0.0;
        let mut exploit_share = 0.0;
        let mut decision_margin = 0.0;
        let mut has_prediction = false;
        if surrogate.is_some() {
            if let Some(c) = chosen.as_ref() {
                let c_key = pack(c);
                if let Some(&(ucb, mean, std)) = scored.get(&c_key) {
                    if mean.is_finite() {
                        has_prediction = true;
                        predicted_mean = mean;
                        predicted_std = std;
                        // Decompose UCB = μ + β·σ (β = 1) into shares.
                        let denom = mean.abs() + std;
                        if denom > 1e-12 {
                            exploit_share = mean.abs() / denom;
                            explore_share = std / denom;
                        }
                        let runner_up = scored
                            .iter()
                            .filter(|(v, _)| **v != c_key)
                            .map(|(_, &(u, _, _))| u)
                            .fold(f64::NEG_INFINITY, f64::max);
                        if runner_up.is_finite() {
                            decision_margin = ucb - runner_up;
                        }
                    }
                }
            }
        }
        // Read only while telemetry is on, like the gated timings
        // (`--journal` turns telemetry on in the CLI).
        let kernel_length_scale = if telemetry::enabled() {
            surrogate
                .as_ref()
                .map_or(0.0, FittedSurrogate::length_scale)
        } else {
            0.0
        };

        // Step 5: validate the explored configuration.
        let exploration_distance = chosen
            .as_ref()
            .map(|c| self.space.manhattan(&root_vec, c))
            .unwrap_or(0);
        let obs_before = state.observations.len();
        if let Some(vec) = chosen {
            if !state.seen.contains(&vec) {
                if let Some(cfg) = self.materialize_vec(&state.reference, &vec) {
                    let _validate_span = telemetry::span::Span::enter("tuner.validate");
                    self.validate_into(&cfg, target, state, self.opts.validation_pruning);
                }
            }
        }
        // A calibration pair needs both a prediction and a realization;
        // power-rejected or already-seen candidates push no observation.
        let calibrated = has_prediction && state.observations.len() > obs_before;
        let realized_grade = if calibrated {
            state
                .observations
                .last()
                .expect("an observation was just pushed")
                .grade
        } else {
            0.0
        };

        let g = state.best_grade();
        state.grade_history.push(g);
        // Convergence: the elite grade barely moved over the window.
        let mut converged = false;
        let mut convergence_delta = -1.0;
        let history = &state.grade_history;
        if history.len() > self.opts.convergence_window {
            let w = &history[history.len() - 1 - self.opts.convergence_window..];
            let lo = w.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = w.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let scale = hi.abs().max(1e-6);
            convergence_delta = (hi - lo) / scale;
            converged = convergence_delta <= self.opts.convergence_epsilon;
        }
        let validations = self.validator.simulator_runs() - runs_at_iter_start;
        let record = IterationRecord {
            iteration: state.iterations,
            candidates_considered,
            sgd_steps,
            surrogate_fit_ns,
            exploration_distance,
            best_grade: g,
            convergence_delta,
            validations,
            wall_ns: telemetry::elapsed_ns(iter_start),
            bottleneck: agg_at_iter_start
                .map(|earlier| self.validator.sim_aggregate().bottleneck_delta(&earlier))
                .unwrap_or_default(),
            predicted_mean,
            predicted_std,
            calibrated,
            realized_grade,
            explore_share,
            exploit_share,
            decision_margin,
            kernel_length_scale,
        };
        // Record the iteration (a no-op with telemetry off); a run journal
        // streams it, so a live tuning run is observable before it finishes.
        let sink = crate::telemetry::global();
        sink.push(|| JournalLine::Iteration((target.name(), &record).into()));
        if record.has_model() {
            sink.push(|| JournalLine::Model((target.name(), &record).into()));
        }
        state.records.push(record);
        converged || state.iterations as usize >= self.opts.max_iterations
    }

    /// Runs `f` on the validation trace of `target`.
    fn with_trace<R>(&self, target: TuningTarget<'_>, f: impl FnOnce(&Trace) -> R) -> R {
        match target {
            TuningTarget::Category(k) => f(&self.validator.trace_for(k)),
            TuningTarget::Trace(t) => f(t),
        }
    }

    fn eval_target(&self, cfg: &SsdConfig, target: TuningTarget<'_>) -> Measurement {
        self.with_trace(target, |t| self.validator.evaluate_trace(cfg, t))
    }

    /// Resolves the exploration order; the boolean reports whether an
    /// explicit pruning-derived order is in effect.
    fn order_indices(&self, tuning_order: Option<&[&str]>) -> (Vec<usize>, bool) {
        match tuning_order {
            Some(names) if self.opts.use_tuning_order => {
                let idx: Vec<usize> = names
                    .iter()
                    .filter_map(|n| self.space.index_of(n))
                    .collect();
                if idx.is_empty() {
                    ((0..self.space.len()).collect(), false)
                } else {
                    (idx, true)
                }
            }
            _ => ((0..self.space.len()).collect(), false),
        }
    }

    /// One SGD step of the surrogate-guided walk from `cur`: scores every
    /// candidate the walk memo does not hold yet, records it there (counted
    /// in `considered`), and returns the candidate a strict-`>` argmax of
    /// the acquisition value over the sorted, deduplicated candidates
    /// ([`Tuner::candidates`]) picks; `None` when `cur` has none.
    ///
    /// The step is one pool batch: the walk's parameters are split into one
    /// contiguous run per pool thread (one run below
    /// [`MIN_SPLIT_NEIGHBOURS`]) of roughly equal neighbor count, and each
    /// item generates its run's candidates, scores its fresh ones with one
    /// surrogate batch and folds its own picks. Every score is a function
    /// of its candidate alone and the picks merge by value, so the result
    /// is the same at any pool width. The memo sees its inserts in
    /// generation order, which does not depend on the split either.
    fn walk_step(
        &self,
        state: &TuneState,
        cur: &[usize],
        model: &FittedSurrogate,
        memo: &mut Memo,
        considered: &mut u64,
    ) -> Option<(Vec<usize>, Score)> {
        let cur_dist = self.distances_from(state, cur);
        let params = self.walk_params(state);
        let weights: Vec<usize> = params
            .iter()
            .map(|&pi| self.space.neighbor_indices(cur, pi).count())
            .collect();
        let width = if weights.iter().sum::<usize>() < MIN_SPLIT_NEIGHBOURS {
            1
        } else {
            mlkit::parallel::max_threads()
        };
        let runs = split_runs(&params, &weights, width);
        let known: &Memo = memo;
        let parts = mlkit::parallel::parallel_map(runs, |run| {
            let mut picks = StepPicks::default();
            let (mut fresh, mut rows) = (Vec::new(), Vec::new());
            self.for_each_candidate(state, cur, &cur_dist, run, |cand| {
                let key = pack(cand);
                match known.get(&key) {
                    Some(&s) => picks.consider(key, s),
                    None => {
                        rows.extend(self.space.normalized(cand));
                        fresh.push(key);
                    }
                }
            });
            let points = Matrix::from_vec(fresh.len(), self.space.len(), rows);
            let scores = model.predict_batch(&points);
            for (&cand, &s) in fresh.iter().zip(&scores) {
                picks.consider(cand, s);
            }
            (fresh, scores, picks)
        });
        let mut step = StepPicks::default();
        for (fresh, scores, picks) in parts {
            // A vector two moves (or two runs) reached is counted once.
            for (cand, s) in fresh.into_iter().zip(scores) {
                if let Entry::Vacant(slot) = memo.entry(cand) {
                    slot.insert(s);
                    *considered += 1;
                }
            }
            for (cand, s) in picks.first.into_iter().chain(picks.best) {
                step.consider(cand, s);
            }
        }
        step.pick(cur.len())
    }

    /// One step of the Random ablation from `cur`: a uniform draw over the
    /// sorted candidates, which records each unseen one in the memo
    /// (counted in `considered`) with no prediction.
    fn random_step(
        &self,
        state: &TuneState,
        cur: &[usize],
        rng: &mut StdRng,
        memo: &mut Memo,
        considered: &mut u64,
    ) -> Option<(Vec<usize>, Score)> {
        const UNPREDICTED: Score = (0.0, f64::NEG_INFINITY, 0.0);
        let candidates = self.candidates(state, cur);
        if candidates.is_empty() {
            return None;
        }
        for cand in &candidates {
            if let Entry::Vacant(slot) = memo.entry(pack(cand)) {
                slot.insert(UNPREDICTED);
                *considered += 1;
            }
        }
        let pick = rng.gen_range(0..candidates.len());
        Some((candidates[pick].clone(), UNPREDICTED))
    }

    /// The parameters a walk step moves, in exploration order and never a
    /// pinned one. With a pruning-derived order only the leading twelve
    /// (Fig. 9's efficiency mechanism); without one every parameter —
    /// numeric, boolean, and categorical — is explorable.
    fn walk_params(&self, state: &TuneState) -> Vec<usize> {
        let order = &state.order_indices;
        let limit = if state.explicit_order && self.opts.use_tuning_order {
            order.len().min(12)
        } else {
            order.len()
        };
        order
            .iter()
            .take(limit)
            .copied()
            .filter(|pi| !self.pinned.contains(pi))
            .collect()
    }

    /// Distance from `cur` to every observation, in validation order.
    fn distances_from(&self, state: &TuneState, cur: &[usize]) -> Vec<u64> {
        state
            .observations
            .iter()
            .map(|o| self.space.manhattan(&o.vector, cur))
            .collect()
    }

    /// Constraint-respecting neighbor vectors of `cur` over every walk
    /// parameter, sorted and deduplicated.
    fn candidates(&self, state: &TuneState, cur: &[usize]) -> Vec<Vec<usize>> {
        let cur_dist = self.distances_from(state, cur);
        let mut out = Vec::new();
        let params = self.walk_params(state);
        self.for_each_candidate(state, cur, &cur_dist, &params, |cand| {
            out.push(cand.to_vec());
        });
        out.sort();
        out.dedup();
        out
    }

    /// Visits the constraint-respecting neighbors of `cur` that move one
    /// parameter of `run`, in order: each move is materialized (dependent
    /// parameters repaired to hold the capacity constraint) and
    /// re-vectorized, and vectors already seen, equal to `cur`, or beyond
    /// the Manhattan bound from every observation are skipped. A repair can
    /// land two moves on one vector, which is then visited twice.
    /// `cur_dist` holds [`Tuner::distances_from`]`(cur)`. Nothing is
    /// allocated per neighbor.
    fn for_each_candidate(
        &self,
        state: &TuneState,
        cur: &[usize],
        cur_dist: &[u64],
        run: &[usize],
        mut visit: impl FnMut(&[usize]),
    ) {
        let params = self.space.params();
        let mut moved = cur.to_vec();
        let mut cand = vec![0; cur.len()];
        let mut changed: Vec<usize> = Vec::new();
        for &pi in run {
            for alt in self.space.neighbor_indices(cur, pi) {
                moved[pi] = alt;
                let cfg = self.materialize_vec(&state.reference, &moved);
                moved[pi] = cur[pi];
                let Some(cfg) = cfg else {
                    continue;
                };
                self.space.vectorize_into(&cfg, &mut cand);
                if cand == cur || state.seen.contains(cand.as_slice()) {
                    continue;
                }
                // A neighbor's distances differ from `cur_dist` only in the
                // moved coordinate and any the repair touched: an exact
                // integer update.
                changed.clear();
                changed.extend((0..cur.len()).filter(|&k| cand[k] != cur[k]));
                let min_dist = state
                    .observations
                    .iter()
                    .zip(cur_dist)
                    .map(|(o, &d)| {
                        changed.iter().fold(d, |d, &k| {
                            d + params[k].distance(cand[k], o.vector[k])
                                - params[k].distance(cur[k], o.vector[k])
                        })
                    })
                    .min()
                    .unwrap_or(0);
                debug_assert_eq!(min_dist, state.min_manhattan(&self.space, &cand));
                if min_dist <= self.opts.manhattan_limit {
                    visit(&cand);
                }
            }
        }
    }

    /// Applies a vector onto the reference base (so parameters outside a
    /// pruned space keep the reference values) and repairs constraints;
    /// `None` if the result cannot satisfy them.
    fn materialize_vec(&self, base: &SsdConfig, vec: &[usize]) -> Option<SsdConfig> {
        let mut cfg = self.space.apply(base, vec);
        self.constraints.pin(&mut cfg);
        if !self.constraints.repair_capacity(&self.space, &mut cfg) {
            return None;
        }
        self.constraints.check_structural(&cfg).ok()?;
        Some(cfg)
    }

    fn fit_surrogate(&self, state: &mut TuneState) -> Option<FittedSurrogate> {
        if state.observations.len() < 2 || self.opts.surrogate == SurrogateKind::Random {
            return None;
        }
        match self.opts.surrogate {
            SurrogateKind::Gpr => self.fit_gpr(state).map(FittedSurrogate::Gpr),
            SurrogateKind::Neural => {
                let (x, ys) = design(&state.observations);
                let mut net = Mlp::new(&[x.cols(), 32, 16, 1], self.opts.seed).ok()?;
                net.fit(
                    &x,
                    &ys,
                    TrainOptions {
                        epochs: 150,
                        learning_rate: 0.02,
                        batch_size: 8,
                        ..TrainOptions::default()
                    },
                )
                .ok()?;
                Some(FittedSurrogate::Neural(net))
            }
            SurrogateKind::Random => None,
        }
    }

    /// Fits the GPR surrogate, growing the run's chain incrementally
    /// between scheduled hyperparameter refits (see [`GPR_RETUNE_EVERY`]).
    ///
    /// The incremental path only touches the rows the chain has not
    /// absorbed yet. Every branch is a deterministic function of the
    /// observation stream alone.
    fn fit_gpr(&self, state: &mut TuneState) -> Option<Gpr> {
        let TuneState {
            observations,
            gpr_chain,
            ..
        } = state;
        let fit = |count: usize, builder: GprBuilder| {
            let (x, ys) = design(&observations[..count]);
            builder.fit(&x, &ys).ok()
        };
        let retune = || GprBuilder::new().optimize_rounds(1);
        let n = observations.len();
        if n < GPR_RETUNE_EVERY || n.is_multiple_of(GPR_RETUNE_EVERY) {
            // Scheduled full fit: re-tune hyperparameters from scratch and
            // restart the chain from here.
            let g = fit(n, retune())?;
            *gpr_chain = Some((n, g.clone()));
            return Some(g);
        }
        let base = n - n % GPR_RETUNE_EVERY;
        if gpr_chain.as_ref().is_none_or(|(count, _)| *count < base) {
            // This iteration validated past the last scheduled count:
            // restart the chain from that scheduled refit.
            *gpr_chain = Some((base, fit(base, retune())?));
        }
        let (count, gpr) = gpr_chain.as_mut().expect("chain was just (re)built");
        while *count < n {
            let o = &observations[*count];
            *gpr = match gpr.extend(&o.normalized, o.grade) {
                Ok(g) => g,
                // Numerically degenerate extension: refit from scratch with
                // the chain's frozen hyperparameters — still a deterministic
                // function of the observation stream.
                Err(_) => fit(
                    *count + 1,
                    GprBuilder::new()
                        .kernel(gpr.kernel().clone())
                        .optimize_rounds(0),
                )?,
            };
            *count += 1;
        }
        Some(gpr.clone())
    }

    /// Validates `cfg` (steps 5-6): measures the target workload, optionally
    /// prunes the non-target runs, enforces the power budget, and records
    /// the grade.
    fn validate_into(
        &self,
        cfg: &SsdConfig,
        target: TuningTarget<'_>,
        state: &mut TuneState,
        allow_pruned_validation: bool,
    ) {
        let vec = self.space.vectorize(cfg);
        if !state.seen.insert(vec.clone()) {
            return;
        }

        let m = self.eval_target(cfg, target);
        // Power-budget constraint is enforced at validation time (§3.4).
        if !self.constraints.check_power(m.power_w) {
            return;
        }
        let perf_t = performance(&m, &state.ref_target, self.opts.alpha);

        // Validation-pruning optimization: if even a perfect non-target
        // score cannot lift this configuration above the current elite
        // floor, skip the expensive non-target runs.
        let target_only_grade = (1.0 - self.opts.beta) * perf_t;
        let g = if allow_pruned_validation
            && !state.ref_non.is_empty()
            && target_only_grade < state.worst_elite_grade(self.opts.top_k)
            && state.observations.len() >= self.opts.top_k
        {
            target_only_grade
        } else {
            // Independent per-workload simulator runs: fan out, grade in
            // order (deterministic — see `mlkit::parallel`).
            let kinds: Vec<WorkloadKind> = state.ref_non.iter().map(|&(kind, _)| kind).collect();
            let non_meas =
                mlkit::parallel::parallel_map(kinds, |w| self.validator.evaluate(cfg, w));
            let non_perfs: Vec<f64> = state
                .ref_non
                .iter()
                .zip(non_meas)
                .map(|((_, reference), mw)| performance(&mw, reference, self.opts.alpha))
                .collect();
            grade(perf_t, &non_perfs, self.opts.beta)
        };

        let norm = self.space.normalize(&vec);
        state.observations.push(Observation {
            vector: vec,
            normalized: norm,
            grade: g,
        });
        if state.best.as_ref().is_none_or(|b| g > b.grade) {
            state.best = Some(GradedConfig {
                config: cfg.clone(),
                grade: g,
                target_performance: perf_t,
                measurement: m,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validator::ValidatorOptions;
    use ssdsim::config::presets;

    fn quick_validator() -> Validator {
        Validator::new(ValidatorOptions {
            trace_events: 300,
            ..Default::default()
        })
    }

    fn quick_opts() -> TunerOptions {
        TunerOptions {
            max_iterations: 6,
            sgd_iterations: 3,
            convergence_window: 4,
            non_target: vec![WorkloadKind::WebSearch],
            ..Default::default()
        }
    }

    fn cons() -> Constraints {
        Constraints::paper_default()
    }

    #[test]
    fn tuning_never_regresses_below_reference() {
        let v = quick_validator();
        let tuner = Tuner::new(cons(), &v, quick_opts());
        let out = tuner.tune(WorkloadKind::Database, &presets::intel_750(), &[], None);
        // The reference itself grades 0; the best must be at least that.
        assert!(out.best.grade >= 0.0, "grade {}", out.best.grade);
        assert!(!out.grade_history.is_empty());
        assert!(out.iterations >= 1);
        assert!(out.validations >= 1);
    }

    #[test]
    fn grade_history_is_monotone_nondecreasing() {
        let v = quick_validator();
        let tuner = Tuner::new(cons(), &v, quick_opts());
        let out = tuner.tune(WorkloadKind::KvStore, &presets::intel_750(), &[], None);
        for w in out.grade_history.windows(2) {
            assert!(w[1] >= w[0] - 1e-12);
        }
    }

    #[test]
    fn iteration_records_track_the_loop() {
        let v = quick_validator();
        let tuner = Tuner::new(cons(), &v, quick_opts());
        let out = tuner.tune(WorkloadKind::Database, &presets::intel_750(), &[], None);
        assert_eq!(out.iteration_records.len(), out.iterations);
        for (i, r) in out.iteration_records.iter().enumerate() {
            assert_eq!(r.iteration, i as u64 + 1);
            // Telemetry is off by default, so gated timings must be zero —
            // this keeps serialized outcomes thread-count invariant — and
            // the kernel lengthscale must not have been read.
            assert_eq!(r.surrogate_fit_ns, 0);
            assert_eq!(r.wall_ns, 0);
            assert_eq!(r.kernel_length_scale, 0.0);
            assert!(r.convergence_delta >= -1.0);
        }
        let last = out
            .iteration_records
            .last()
            .expect("at least one iteration");
        assert_eq!(last.best_grade, *out.grade_history.last().expect("history"));
        let recorded: u64 = out.iteration_records.iter().map(|r| r.validations).sum();
        assert!(recorded <= out.validations);
    }

    #[test]
    fn best_config_satisfies_constraints() {
        let v = quick_validator();
        let tuner = Tuner::new(cons(), &v, quick_opts());
        let out = tuner.tune(WorkloadKind::CloudStorage, &presets::intel_750(), &[], None);
        assert_eq!(cons().check_structural(&out.best.config), Ok(()));
    }

    #[test]
    fn tuning_order_restricts_exploration() {
        let v = quick_validator();
        let tuner = Tuner::new(cons(), &v, quick_opts());
        let order = ["channel_count", "data_cache_size"];
        let out = tuner.tune(
            WorkloadKind::Database,
            &presets::intel_750(),
            &[],
            Some(&order),
        );
        assert!(out.best.grade >= 0.0);
    }

    #[test]
    fn initial_configs_participate() {
        let v = quick_validator();
        let tuner = Tuner::new(cons(), &v, quick_opts());
        // Seed with a deliberately different configuration.
        let seeded = SsdConfig {
            channel_count: 16,
            chips_per_channel: 4,
            ..presets::intel_750()
        };
        let out = tuner.tune(
            WorkloadKind::Database,
            &presets::intel_750(),
            &[seeded],
            None,
        );
        assert!(out.best.grade >= 0.0);
    }

    #[test]
    fn flash_timing_stays_pinned_without_whatif() {
        let v = quick_validator();
        let tuner = Tuner::new(cons(), &v, quick_opts());
        let reference = presets::intel_750();
        let out = tuner.tune(WorkloadKind::WebSearch, &reference, &[], None);
        assert_eq!(out.best.config.read_latency_ns, reference.read_latency_ns);
        assert_eq!(
            out.best.config.program_latency_ns,
            reference.program_latency_ns
        );
        assert_eq!(out.best.config.erase_latency_ns, reference.erase_latency_ns);
    }

    #[test]
    fn random_proposals_still_converge() {
        let v = quick_validator();
        let opts = TunerOptions {
            surrogate: SurrogateKind::Random,
            ..quick_opts()
        };
        let tuner = Tuner::new(cons(), &v, opts);
        let out = tuner.tune(WorkloadKind::Fiu, &presets::intel_750(), &[], None);
        assert!(out.best.grade >= 0.0);
        assert!(out.validations >= 1);
    }

    #[test]
    fn neural_surrogate_still_converges() {
        let v = quick_validator();
        let opts = TunerOptions {
            surrogate: SurrogateKind::Neural,
            ..quick_opts()
        };
        let tuner = Tuner::new(cons(), &v, opts);
        let out = tuner.tune(WorkloadKind::Database, &presets::intel_750(), &[], None);
        assert!(out.best.grade >= 0.0);
    }

    #[test]
    fn interface_and_flash_type_never_drift() {
        let v = quick_validator();
        let tuner = Tuner::new(cons(), &v, quick_opts());
        let out = tuner.tune(WorkloadKind::Vdi, &presets::intel_750(), &[], None);
        assert_eq!(out.best.config.interface, ssdsim::Interface::Nvme);
        assert_eq!(
            out.best.config.flash_technology,
            ssdsim::FlashTechnology::Mlc
        );
    }

    #[test]
    #[should_panic(expected = "constraints")]
    fn mismatched_reference_panics() {
        let v = quick_validator();
        let tuner = Tuner::new(
            Constraints::new(
                64,
                ssdsim::Interface::Nvme,
                ssdsim::FlashTechnology::Mlc,
                25.0,
            ),
            &v,
            quick_opts(),
        );
        // Intel 750 is ~480 GiB; a 64 GiB constraint cannot hold it.
        let _ = tuner.tune(WorkloadKind::Database, &presets::intel_750(), &[], None);
    }

    /// `Tuner::candidates` as it stood before the incremental bound: the
    /// pinned set found by name, every neighbor's distance a full scan of
    /// every observation.
    fn naive_candidates(t: &Tuner<'_>, state: &TuneState, cur: &[usize]) -> Vec<Vec<usize>> {
        let mut pinned: Vec<usize> = ["interface", "flash_technology"]
            .iter()
            .filter_map(|n| t.space.index_of(n))
            .collect();
        if !t.opts.explore_flash_timing {
            pinned.extend(
                ["read_latency", "program_latency", "erase_latency"]
                    .iter()
                    .filter_map(|n| t.space.index_of(n)),
            );
        }
        let order = &state.order_indices;
        let limit = if state.explicit_order && t.opts.use_tuning_order {
            order.len().min(12)
        } else {
            order.len()
        };
        let mut out = Vec::new();
        for &pi in order.iter().take(limit) {
            if pinned.contains(&pi) {
                continue;
            }
            for mut cand in t.space.neighbors_of_param(cur, pi) {
                let mut cfg = t.space.apply(&state.reference, &cand);
                t.constraints.pin(&mut cfg);
                if !t.constraints.repair_capacity(&t.space, &mut cfg)
                    || t.constraints.check_structural(&cfg).is_err()
                {
                    continue;
                }
                cand = t.space.vectorize(&cfg);
                if state.seen.contains(&cand) || cand == cur {
                    continue;
                }
                if state.min_manhattan(&t.space, &cand) > t.opts.manhattan_limit {
                    continue;
                }
                out.push(cand);
            }
        }
        out.sort();
        out.dedup();
        out
    }

    /// Runs a short tune to populate a state, then compares `candidates`
    /// with the naive twin from every validated position and from each
    /// position's own first candidates (two steps out, where the bound
    /// starts to bite and layout moves get repaired).
    fn assert_candidates_match_naive(
        tuner: &Tuner<'_>,
        kind: WorkloadKind,
        order: Option<&[&str]>,
    ) {
        let state = tuner
            .run(kind.into(), &presets::intel_750(), &[], order)
            .expect("the paper's constraints admit a search");
        assert!(state.observations.len() >= 3, "{kind:?}: a populated state");
        let mut compared = 0;
        for o in &state.observations {
            let first = tuner.candidates(&state, &o.vector);
            assert_eq!(first, naive_candidates(tuner, &state, &o.vector));
            for cur in first.iter().step_by(7) {
                let second = tuner.candidates(&state, cur);
                assert_eq!(second, naive_candidates(tuner, &state, cur));
                compared += second.len();
            }
        }
        assert!(compared > 0, "{kind:?}: no candidate was ever compared");
    }

    #[test]
    fn candidates_match_the_naive_twin_on_every_studied_category() {
        let v = Validator::new(ValidatorOptions {
            trace_events: 200,
            ..Default::default()
        });
        let opts = TunerOptions {
            max_iterations: 4,
            sgd_iterations: 3,
            convergence_window: 5,
            // A tight bound so the Manhattan filter rejects some neighbors.
            manhattan_limit: 2,
            ..Default::default()
        };
        let order = [
            "channel_count",
            "page_capacity",
            "plane_allocation_scheme",
            "data_cache_size",
            "read_latency",
            "io_queue_depth",
            "interface",
        ];
        let tuner = Tuner::new(cons(), &v, opts.clone());
        for kind in WorkloadKind::STUDIED {
            assert_candidates_match_naive(&tuner, kind, None);
            assert_candidates_match_naive(&tuner, kind, Some(&order));
        }
        // The pinned set follows the options and a replaced space.
        let unlocked = TunerOptions {
            explore_flash_timing: true,
            ..opts.clone()
        };
        let timing = Tuner::new(cons(), &v, unlocked);
        assert_candidates_match_naive(&timing, WorkloadKind::Database, Some(&order));
        let pruned = Tuner::new(cons(), &v, opts).with_space(ParamSpace::with_params(&order));
        assert_candidates_match_naive(&pruned, WorkloadKind::Database, None);
    }

    #[test]
    fn failed_surrogate_batch_scores_every_point_unreachable() {
        let x = Matrix::from_rows(&[vec![0.0, 0.0], vec![1.0, 0.5], vec![0.5, 1.0]]);
        let gpr = GprBuilder::new()
            .optimize_rounds(0)
            .fit(&x, &[0.1, 0.4, 0.2])
            .expect("fit");
        let model = FittedSurrogate::Gpr(gpr);
        assert!(model.predict_batch(&Matrix::zeros(0, 2)).is_empty());
        let ok = model.predict_batch(&x);
        assert!(ok
            .iter()
            .all(|&(ucb, mean, std)| ucb.is_finite() && ucb >= mean && std >= 0.0));
        // One column too many fails the whole batch, point by point.
        assert_eq!(
            model.predict_batch(&Matrix::zeros(4, 3)),
            vec![(f64::NEG_INFINITY, f64::NEG_INFINITY, 0.0); 4]
        );
    }
}
