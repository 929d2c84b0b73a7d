//! # ssdsim — an event-driven multi-queue SSD simulator
//!
//! The validation substrate of the AutoBlox reproduction, standing in for
//! MQSim (Tavakkol et al., FAST'18), the simulator the paper extends. The
//! crate models:
//!
//! - [`config`]: the full SSD hardware configuration (flash layout, timing,
//!   controller DRAM, FTL policies, host interface) plus the commodity
//!   baselines the paper compares against ([`config::presets`]);
//! - [`flash`]: physical flash state — planes, blocks, valid-page counts,
//!   write striping per plane-allocation scheme, garbage collection, and
//!   static wear leveling;
//! - [`lru`]: the LRU structure backing the data cache and the cached
//!   mapping table;
//! - [`sim`]: the simulator that drives a block I/O [`iotrace::Trace`]
//!   through host interface → FTL → flash back end;
//! - [`observe`]: the device observatory — bounded time-series sampling of
//!   channel/die utilization, caches, queue depth, and GC pressure, plus
//!   per-run bottleneck attribution ([`observe::BottleneckReport`]);
//! - [`power`]: the flash/DRAM/controller energy model the paper adds to
//!   MQSim;
//! - [`report`]: latency/throughput/energy results.
//!
//! # Examples
//!
//! ```
//! use iotrace::gen::WorkloadKind;
//! use ssdsim::config::SsdConfig;
//! use ssdsim::sim::Simulator;
//!
//! let trace = WorkloadKind::WebSearch.spec().generate(1_000, 7);
//! let mut sim = Simulator::new(SsdConfig::default());
//! sim.warm_up(0.5);
//! let report = sim.run(&trace);
//! println!("mean latency: {:.1} us", report.mean_latency_us());
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod flash;
pub mod lru;
pub mod observe;
pub mod power;
pub mod report;
pub mod sim;

/// Version of the simulated numbers. Stored measurements are keyed by it,
/// so bump it with any change that moves a [`SimReport`] field — or how a
/// validator turns the timed and saturated reports into one measurement —
/// and stores written before the change are never served again.
/// `tests/golden_reports.rs` pins it to the golden report hashes.
pub const SIM_MODEL: u32 = 1;

pub use config::{FlashTechnology, Interface, SsdConfig};
pub use observe::{BottleneckReport, DeviceSample, DeviceSeries};
pub use report::SimReport;
pub use sim::{RunScratch, Simulator};
