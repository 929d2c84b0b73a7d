//! # autoblox — learning to drive software-defined solid-state drives
//!
//! A Rust reproduction of **AutoBlox** (Li, Sun, Huang — MICRO 2023), the
//! automated learning-based SSD hardware-configuration framework. Given a
//! target storage workload and user constraints (capacity, interface, flash
//! type, power budget), AutoBlox recommends an SSD configuration that
//! optimizes the workload's latency and throughput while bounding the impact
//! on non-target workloads.
//!
//! The pipeline (Figure 3 of the paper):
//!
//! 1. [`clustering`] — block I/O traces are windowed, reduced with PCA, and
//!    clustered with k-means; known clusters recall configurations from
//!    AutoDB directly.
//! 2. [`params`] / [`constraints`] — the 48 SSD hardware parameters are
//!    formulated as continuous/discrete/boolean/categorical ML parameters
//!    bounded by `set_cons`-style constraints.
//! 3. [`pruning`] — coarse (16x sweeps) and fine (Ridge coefficients)
//!    pruning find the performance-critical parameters and the tuning order.
//! 4. [`tuner`] — a customized Bayesian-optimization loop (discrete SGD
//!    neighborhood search + Gaussian-process grade prediction) explores the
//!    space, validating candidates on the [`ssdsim`] simulator.
//! 5. [`metrics`] — Formula 1 unifies latency/throughput (α); Formula 2
//!    blends target and non-target performance (β).
//! 6. [`whatif`] — what-if analysis finds configurations meeting an explicit
//!    performance target (§4.5).
//! 7. [`framework`] — the assembled facade with AutoDB persistence: learned
//!    configurations per cluster, and every paid-for measurement, so a
//!    re-run replays instead of re-simulating.
//!
//! # Examples
//!
//! Learn an optimized configuration for the Database workload:
//!
//! ```
//! use autoblox::constraints::Constraints;
//! use autoblox::tuner::{Tuner, TunerOptions};
//! use autoblox::validator::{Validator, ValidatorOptions};
//! use iotrace::gen::WorkloadKind;
//! use ssdsim::config::presets;
//!
//! let validator = Validator::new(ValidatorOptions { trace_events: 300, ..Default::default() });
//! let opts = TunerOptions { max_iterations: 3, sgd_iterations: 2, ..Default::default() };
//! let tuner = Tuner::new(Constraints::paper_default(), &validator, opts);
//! let outcome = tuner.tune(WorkloadKind::Database, &presets::intel_750(), &[], None);
//! assert!(outcome.best.grade >= 0.0);
//! ```

#![warn(missing_docs)]

pub mod clustering;
pub mod constraints;
pub mod explain;
pub mod framework;
pub mod journal;
pub mod metrics;
pub mod model_obs;
pub mod params;
pub mod pruning;
pub mod report;
pub mod telemetry;
pub mod tuner;
pub mod validator;
pub mod whatif;

pub use constraints::Constraints;
pub use framework::{AutoBlox, AutoBloxOptions, Recommendation};
pub use metrics::{grade, performance, Measurement};
pub use mlkit::parallel;
pub use params::ParamSpace;
pub use report::Summary;
pub use tuner::{SurrogateKind, Tuner, TunerOptions, TuningOutcome, TuningTarget};
pub use validator::{Validator, ValidatorOptions};
