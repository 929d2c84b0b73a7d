//! # iotrace — block I/O traces and synthetic storage workloads
//!
//! The trace substrate of the AutoBlox reproduction:
//!
//! - [`trace`]: the [`TraceEvent`]/[`Trace`] model with summary statistics;
//! - [`parse`]: CSV and `blkparse`-style readers plus a CSV writer;
//! - [`gen`]: seeded synthetic generators for the paper's 13 workload
//!   categories (Tables 2 and 3);
//! - [`window`]: 3,000-entry windowing and access-pattern feature extraction
//!   feeding AutoBlox's clustering front end (§3.1).
//!
//! # Examples
//!
//! ```
//! use iotrace::gen::WorkloadKind;
//! use iotrace::window::{window_features, WindowOptions};
//!
//! let trace = WorkloadKind::KvStore.spec().generate(3_000, 42);
//! let features = window_features(&trace, WindowOptions::default());
//! assert_eq!(features.len(), 1);
//! ```

#![warn(missing_docs)]

pub mod gen;
pub mod parse;
pub mod stats;
pub mod trace;
pub mod window;

pub use gen::{WorkloadKind, WorkloadSpec};
pub use trace::{OpKind, Trace, TraceEvent};
