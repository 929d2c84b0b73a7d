//! Learning-based parameter pruning (§3.3).
//!
//! Two stages: **coarse-grained** pruning sweeps each numeric parameter with
//! a large stride (up to 16x its baseline) and drops parameters whose sweep
//! leaves performance flat (Figure 4); **fine-grained** pruning fits a Ridge
//! regression from normalized parameter vectors to the unified performance
//! metric and drops parameters whose coefficient magnitude falls below a
//! threshold, ordering the survivors by |coefficient| to drive the tuning
//! order (Figure 5, Figure 9).

use crate::metrics::{performance, DEFAULT_ALPHA};
use crate::params::{ParamKind, ParamSpace};
use crate::validator::Validator;
use iotrace::gen::WorkloadKind;
use mlkit::linalg::Matrix;
use mlkit::ridge::Ridge;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use ssdsim::config::SsdConfig;

/// Relative performance deviation below which a parameter counts as
/// insensitive in the coarse stage.
pub const COARSE_SENSITIVITY_EPSILON: f64 = 0.02;

/// Default coefficient-magnitude threshold of the fine stage (the paper
/// uses ±0.001 on its score scale).
pub const FINE_COEF_THRESHOLD: f64 = 0.001;

/// Sweep multipliers applied to each numeric parameter's baseline value
/// ("we increase the values ... from their baseline setting to 16x").
pub const COARSE_MULTIPLIERS: [f64; 5] = [1.0, 2.0, 4.0, 8.0, 16.0];

/// One parameter's coarse sweep result.
#[derive(Debug, Clone, Serialize)]
pub struct CoarseSweep {
    /// Parameter name.
    pub name: String,
    /// Unified performance score at each sweep multiplier, relative to the
    /// baseline configuration (index-aligned with [`COARSE_MULTIPLIERS`]).
    pub scores: Vec<f64>,
    /// Scores at the two extremes of the parameter's legal grid, probed in
    /// addition to the multiplier sweep so parameters bounded above by
    /// their baseline (e.g. technology-relative flash timings) still
    /// register their sensitivity.
    pub extreme_scores: [f64; 2],
    /// Maximum |score| deviation over the sweep and the extremes.
    pub sensitivity: f64,
    /// `true` if the parameter is flat (insensitive) for this workload.
    pub insensitive: bool,
    /// Validations this parameter's sweep issued (after dedup). The
    /// validator's cache answers some of them: a probe of a knob the
    /// simulator cannot see is the baseline's measurement.
    pub probes: u64,
    /// Summed probe time for this parameter, ns (0 when telemetry is off).
    pub sweep_ns: u64,
}

/// Result of the coarse-grained pruning stage for one workload.
#[derive(Debug, Clone, Serialize)]
pub struct CoarseReport {
    /// Workload the sweep was run against.
    pub workload: String,
    /// Per-parameter sweeps (Figure 4's lines).
    pub sweeps: Vec<CoarseSweep>,
    /// Total deduplicated validations fanned out across all parameters,
    /// cache hits included (the charged runs are the validator's count).
    pub probe_count: u64,
    /// Wall-clock time of the whole stage, ns (0 when telemetry is off).
    pub wall_ns: u64,
}

impl CoarseReport {
    /// Names of the insensitive parameters.
    pub fn insensitive(&self) -> Vec<&str> {
        self.sweeps
            .iter()
            .filter(|s| s.insensitive)
            .map(|s| s.name.as_str())
            .collect()
    }

    /// Names of the surviving (sensitive) parameters.
    pub fn sensitive(&self) -> Vec<&str> {
        self.sweeps
            .iter()
            .filter(|s| !s.insensitive)
            .map(|s| s.name.as_str())
            .collect()
    }
}

/// Sweeps every numeric parameter and classifies it as sensitive or
/// insensitive for `workload`.
///
/// Constraint violations are deliberately ignored here, per the paper: "we
/// only prune parameters that have almost no impact on the performance even
/// if they break the configuration constraints".
pub fn coarse_prune(
    space: &ParamSpace,
    base: &SsdConfig,
    workload: WorkloadKind,
    validator: &Validator,
) -> CoarseReport {
    let _span = telemetry::span::Span::enter_keyed(
        "prune.coarse",
        telemetry::span::key_str(workload.name()),
    );
    let stage_start = telemetry::start();
    let baseline = validator.evaluate(base, workload);
    // Score of any probe whose grid index reproduces the baseline value
    // (always the 1.0 multiplier; often grid extremes too): known without
    // touching the simulator. Probes on invalid configurations score 0.
    let base_score = if base.validate().is_ok() {
        performance(&baseline, &baseline, DEFAULT_ALPHA)
    } else {
        0.0
    };

    // Plan every probe up front so the whole sweep fans out as one flat
    // (parameter, grid-index) work list, with duplicates — multipliers
    // aliasing on coarse grids, extremes coinciding with swept points,
    // probes landing back on the baseline index — resolved once.
    struct SweepPlan<'p> {
        param: &'p crate::params::ParamDef,
        base_idx: usize,
        reusable_base: bool,
        mult_idx: Vec<usize>,
        ext_idx: [usize; 2],
    }
    let mut plans: Vec<SweepPlan<'_>> = Vec::new();
    let mut jobs: Vec<(usize, usize)> = Vec::new();
    for p in space.params() {
        if !matches!(p.kind, ParamKind::Continuous | ParamKind::Discrete) {
            continue;
        }
        let base_idx = p.get(base);
        let base_value = p.grid[base_idx].max(1e-9);
        let mult_idx: Vec<usize> = COARSE_MULTIPLIERS
            .iter()
            .map(|&m| p.nearest_index(base_value * m))
            .collect();
        let ext_idx = [0, p.cardinality() - 1];
        // `get` snaps off-grid values to the nearest grid point; only reuse
        // the baseline score when setting `base_idx` actually reproduces the
        // baseline configuration.
        let reusable_base = {
            let mut snap = base.clone();
            p.set(&mut snap, base_idx);
            snap == *base
        };
        let pi = plans.len();
        let mut unique: Vec<usize> = Vec::new();
        for &idx in mult_idx.iter().chain(ext_idx.iter()) {
            if !(unique.contains(&idx) || (reusable_base && idx == base_idx)) {
                unique.push(idx);
            }
        }
        jobs.extend(unique.into_iter().map(|idx| (pi, idx)));
        plans.push(SweepPlan {
            param: p,
            base_idx,
            reusable_base,
            mult_idx,
            ext_idx,
        });
    }

    // Fan out: each probe touches its own configuration, and the validator
    // memoizes deterministically, so the scores are order-independent. Each
    // probe also reports its own duration (zero when telemetry is off) so
    // per-parameter sweep cost can be attributed without any shared state.
    let probe_count = jobs.len() as u64;
    let probed = mlkit::parallel::parallel_map(jobs.clone(), |(pi, idx)| {
        let probe_start = telemetry::start();
        let p = plans[pi].param;
        let mut cfg = base.clone();
        p.set(&mut cfg, idx);
        let score = if cfg.validate().is_ok() {
            let meas = validator.evaluate(&cfg, workload);
            performance(&meas, &baseline, DEFAULT_ALPHA)
        } else {
            0.0
        };
        (score, telemetry::elapsed_ns(probe_start))
    });
    let mut probes_of = vec![0u64; plans.len()];
    let mut sweep_ns_of = vec![0u64; plans.len()];
    for (&(pi, _), &(_, ns)) in jobs.iter().zip(probed.iter()) {
        probes_of[pi] += 1;
        sweep_ns_of[pi] += ns;
    }
    let score_of: std::collections::HashMap<(usize, usize), f64> = jobs
        .into_iter()
        .zip(probed.into_iter().map(|(s, _)| s))
        .collect();

    let sweeps = plans
        .iter()
        .enumerate()
        .map(|(pi, plan)| {
            let lookup = |idx: usize| {
                if plan.reusable_base && idx == plan.base_idx {
                    base_score
                } else {
                    score_of[&(pi, idx)]
                }
            };
            let scores: Vec<f64> = plan.mult_idx.iter().map(|&i| lookup(i)).collect();
            let extreme_scores = [lookup(plan.ext_idx[0]), lookup(plan.ext_idx[1])];
            let sensitivity = scores
                .iter()
                .chain(extreme_scores.iter())
                .fold(0.0f64, |acc, s| acc.max(s.abs()));
            CoarseSweep {
                name: plan.param.name.to_string(),
                insensitive: sensitivity < COARSE_SENSITIVITY_EPSILON,
                sensitivity,
                scores,
                extreme_scores,
                probes: probes_of[pi],
                sweep_ns: sweep_ns_of[pi],
            }
        })
        .collect();
    CoarseReport {
        workload: workload.name().to_string(),
        sweeps,
        probe_count,
        wall_ns: telemetry::elapsed_ns(stage_start),
    }
}

/// One parameter's fine-grained regression result.
#[derive(Debug, Clone, Serialize)]
pub struct FineCoefficient {
    /// Parameter name.
    pub name: String,
    /// Ridge coefficient on the normalized (0..1) parameter value.
    pub coefficient: f64,
    /// `true` if |coefficient| falls below the pruning threshold.
    pub pruned: bool,
}

/// Result of the fine-grained pruning stage for one workload.
#[derive(Debug, Clone, Serialize)]
pub struct FineReport {
    /// Workload the regression was fitted for.
    pub workload: String,
    /// Per-parameter coefficients (Figure 5's cells), regression order.
    pub coefficients: Vec<FineCoefficient>,
    /// R² of the fitted regression on its training samples.
    pub r_squared: f64,
    /// Valid samples the regression was fitted on.
    pub samples_used: u64,
    /// Sampling attempts, including constraint-rejected draws.
    pub attempts: u64,
    /// Time spent fitting the Ridge model, ns (0 when telemetry is off).
    pub fit_ns: u64,
    /// Wall-clock time of the whole stage, ns (0 when telemetry is off).
    pub wall_ns: u64,
}

impl FineReport {
    /// Surviving parameter names ordered by |coefficient| descending — the
    /// tuning order AutoBlox enforces (§3.4, Figure 9).
    pub fn tuning_order(&self) -> Vec<&str> {
        let mut v: Vec<&FineCoefficient> = self.coefficients.iter().filter(|c| !c.pruned).collect();
        v.sort_by(|a, b| {
            b.coefficient
                .abs()
                .partial_cmp(&a.coefficient.abs())
                .expect("finite coefficients")
        });
        v.into_iter().map(|c| c.name.as_str()).collect()
    }

    /// The coefficient for a named parameter, if present.
    pub fn coefficient(&self, name: &str) -> Option<f64> {
        self.coefficients
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.coefficient)
    }
}

/// Options for the fine-grained stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FineOptions {
    /// Number of random configurations sampled for the regression.
    pub samples: usize,
    /// Ridge regularization strength.
    pub ridge_alpha: f64,
    /// Coefficient-magnitude pruning threshold.
    pub coef_threshold: f64,
    /// Sampling seed.
    pub seed: u64,
}

impl Default for FineOptions {
    fn default() -> Self {
        FineOptions {
            samples: 64,
            ridge_alpha: 1e-3,
            coef_threshold: FINE_COEF_THRESHOLD,
            seed: 0xF13E,
        }
    }
}

/// Fits the Ridge regression over randomly perturbed configurations of the
/// parameters named in `names` ("we set a regression space by maintaining
/// the constraints" — samples are drawn around the baseline and kept
/// structurally valid). The distinct sampled configurations are validated
/// on the worker pool, like [`coarse_prune`]'s probes; the report does not
/// depend on the pool's width.
///
/// # Panics
///
/// Panics if `names` resolves to an empty parameter set.
pub fn fine_prune(
    space: &ParamSpace,
    base: &SsdConfig,
    workload: WorkloadKind,
    names: &[&str],
    validator: &Validator,
    opts: FineOptions,
) -> FineReport {
    let _span =
        telemetry::span::Span::enter_keyed("prune.fine", telemetry::span::key_str(workload.name()));
    let stage_start = telemetry::start();
    let indices: Vec<usize> = names.iter().filter_map(|n| space.index_of(n)).collect();
    assert!(
        !indices.is_empty(),
        "fine_prune needs at least one parameter"
    );
    let baseline = validator.evaluate(base, workload);
    let base_vec = space.vectorize(base);
    let mut rng = StdRng::seed_from_u64(opts.seed);

    // Draw every sample first: the random stream never depends on a
    // measurement, so the draws — and which of them the constraints reject —
    // are the same whether the validations then run one by one or fan out.
    // `slot_of[i]` is the distinct configuration draw `i` landed on.
    let mut distinct: Vec<(Vec<usize>, SsdConfig)> = Vec::new();
    let mut slot_of: Vec<usize> = Vec::with_capacity(opts.samples);
    let mut attempts = 0;
    while slot_of.len() < opts.samples && attempts < opts.samples * 10 {
        attempts += 1;
        let mut vec = base_vec.clone();
        // Perturb a random subset of the regression parameters.
        for &pi in &indices {
            if rng.gen::<f64>() < 0.5 {
                let card = space.params()[pi].cardinality();
                vec[pi] = rng.gen_range(0..card);
            }
        }
        let slot = match distinct.iter().position(|(seen, _)| *seen == vec) {
            Some(slot) => slot,
            None => {
                let cfg = space.apply(base, &vec);
                if cfg.validate().is_err() {
                    continue;
                }
                distinct.push((vec, cfg));
                distinct.len() - 1
            }
        };
        slot_of.push(slot);
    }

    let scores = mlkit::parallel::parallel_map(
        distinct.iter().map(|(_, cfg)| cfg).collect(),
        |cfg: &SsdConfig| {
            let meas = validator.evaluate(cfg, workload);
            performance(&meas, &baseline, DEFAULT_ALPHA)
        },
    );

    let xs: Vec<Vec<f64>> = slot_of
        .iter()
        .map(|&slot| {
            let vec = &distinct[slot].0;
            indices
                .iter()
                .map(|&pi| {
                    let card = space.params()[pi].cardinality();
                    if card > 1 {
                        vec[pi] as f64 / (card - 1) as f64
                    } else {
                        0.0
                    }
                })
                .collect()
        })
        .collect();
    let ys: Vec<f64> = slot_of.iter().map(|&slot| scores[slot]).collect();

    let x = Matrix::from_rows(&xs);
    let fit_start = telemetry::start();
    let model = Ridge::fit(&x, &ys, opts.ridge_alpha).expect("regression fits");
    let fit_ns = telemetry::elapsed_ns(fit_start);
    let r_squared = model.score(&x, &ys).unwrap_or(0.0);
    let coefficients = indices
        .iter()
        .zip(model.coefficients())
        .map(|(&pi, &coef)| FineCoefficient {
            name: space.params()[pi].name.to_string(),
            coefficient: coef,
            pruned: coef.abs() < opts.coef_threshold,
        })
        .collect();
    FineReport {
        workload: workload.name().to_string(),
        coefficients,
        r_squared,
        samples_used: xs.len() as u64,
        attempts: attempts as u64,
        fit_ns,
        wall_ns: telemetry::elapsed_ns(stage_start),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validator::ValidatorOptions;

    fn quick_validator() -> Validator {
        Validator::new(ValidatorOptions {
            trace_events: 400,
            ..Default::default()
        })
    }

    fn small_space() -> ParamSpace {
        ParamSpace::with_params(&[
            "channel_count",
            "data_cache_size",
            "read_latency",
            "page_metadata_capacity",
            "init_delay",
        ])
    }

    #[test]
    fn coarse_identifies_inert_parameters() {
        let space = small_space();
        let v = quick_validator();
        let report = coarse_prune(&space, &SsdConfig::default(), WorkloadKind::Database, &v);
        let insensitive = report.insensitive();
        assert!(
            insensitive.contains(&"page_metadata_capacity"),
            "inert parameter must be pruned, got insensitive={insensitive:?}"
        );
        assert!(insensitive.contains(&"init_delay"));
    }

    #[test]
    fn coarse_keeps_read_latency_sensitive() {
        let space = small_space();
        let v = quick_validator();
        let report = coarse_prune(&space, &SsdConfig::default(), WorkloadKind::WebSearch, &v);
        assert!(
            report.sensitive().contains(&"read_latency"),
            "read latency must matter for a read-dominated workload: {:?}",
            report.sweeps
        );
    }

    #[test]
    fn coarse_sweep_shape() {
        let space = ParamSpace::with_params(&["channel_count"]);
        let v = quick_validator();
        let report = coarse_prune(&space, &SsdConfig::default(), WorkloadKind::KvStore, &v);
        assert_eq!(report.sweeps.len(), 1);
        assert_eq!(report.sweeps[0].scores.len(), COARSE_MULTIPLIERS.len());
        // Multiplier 1.0 is the baseline: score must be ~0.
        assert!(report.sweeps[0].scores[0].abs() < 1e-9);
    }

    #[test]
    fn fine_orders_by_coefficient_magnitude() {
        let space = small_space();
        let v = quick_validator();
        let report = fine_prune(
            &space,
            &SsdConfig::default(),
            WorkloadKind::WebSearch,
            &["channel_count", "read_latency", "init_delay"],
            &v,
            FineOptions {
                samples: 24,
                ..Default::default()
            },
        );
        assert_eq!(report.coefficients.len(), 3);
        let order = report.tuning_order();
        // read_latency dominates a 99.9%-read workload; the inert
        // init_delay must not outrank it.
        let rl = order.iter().position(|&n| n == "read_latency");
        let id = order.iter().position(|&n| n == "init_delay");
        match (rl, id) {
            (Some(a), Some(b)) => assert!(a < b),
            (Some(_), None) => {} // init_delay pruned entirely: fine
            other => panic!("unexpected ordering {other:?} in {order:?}"),
        }
        assert!(report.coefficient("read_latency").unwrap().abs() > 0.0);
        assert!(report.coefficient("missing").is_none());
    }

    #[test]
    #[should_panic(expected = "at least one parameter")]
    fn fine_rejects_empty_names() {
        let space = small_space();
        let v = quick_validator();
        let _ = fine_prune(
            &space,
            &SsdConfig::default(),
            WorkloadKind::Vdi,
            &["nonexistent"],
            &v,
            FineOptions::default(),
        );
    }
}
