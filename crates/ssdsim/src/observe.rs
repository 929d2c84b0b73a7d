//! Device observatory: in-simulator time-series sampling and bottleneck
//! attribution.
//!
//! Two complementary views of where a run's time went:
//!
//! - [`DeviceSeries`] — a bounded, deterministic time series of
//!   [`DeviceSample`]s taken every `interval_ns` of *simulated* time while
//!   the process-wide telemetry switch is on. Each sample snapshots channel
//!   and die busy fractions over the elapsed interval plus instantaneous
//!   cache occupancy/hit rates, host queue depth, GC backlog/activity, and
//!   cumulative write amplification. The buffer is drop-counting: once
//!   `max` samples exist, later ones are dropped (newest-dropped) and
//!   counted, so a pathological interval cannot balloon memory and a
//!   truncated series is visibly truncated.
//! - [`BottleneckReport`] — an end-of-run attribution of total request
//!   latency into channel-wait / plane-busy / GC-stall / cache-miss /
//!   host-queueing fractions, built from the simulator's always-on wait
//!   counters (so it is populated even with telemetry off).
//!
//! Both are pure functions of the (configuration, trace) pair — no wall
//! clock, no randomness — so they are bit-identical across thread counts
//! and back-to-back runs, which is what lets the regression gate assert on
//! them.

use serde::{Deserialize, Serialize};

/// Default simulated-time spacing between device samples (100 µs).
pub const DEFAULT_SAMPLE_INTERVAL_NS: u64 = 100_000;

/// Default bound on retained samples per run.
pub const DEFAULT_SAMPLE_CAP: usize = 512;

/// One snapshot of device state at a simulated instant.
///
/// Busy fractions cover the interval that *ended* at `t_ns`; occupancy,
/// queue depth, and backlog are instantaneous; hit rates and write
/// amplification are cumulative since the simulator was built.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct DeviceSample {
    /// Simulated time of the sample, ns.
    pub t_ns: u64,
    /// Fraction of aggregate channel capacity busy over the interval
    /// (clamped to 1.0 — background work is charged in bursts).
    pub channel_busy: f64,
    /// Fraction of aggregate die/plane capacity busy over the interval.
    pub plane_busy: f64,
    /// Of the die busy fraction, the part consumed by GC / wear leveling.
    pub gc_activity: f64,
    /// Outstanding host requests in the device queue.
    pub queue_depth: u64,
    /// Data-cache fill fraction (0 when the cache has zero capacity).
    pub data_cache_occupancy: f64,
    /// Cumulative data-cache read hit rate.
    pub data_cache_hit_rate: f64,
    /// Cached-mapping-table fill fraction.
    pub cmt_occupancy: f64,
    /// Cumulative CMT hit rate.
    pub cmt_hit_rate: f64,
    /// Pages the device is short of its per-plane GC free-page target,
    /// summed over planes (0 when every plane is above threshold).
    pub gc_backlog_pages: u64,
    /// Cumulative write amplification (physical programs / host writes).
    pub write_amplification: f64,
}

/// A bounded, drop-counting series of [`DeviceSample`]s from one run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DeviceSeries {
    /// Simulated-time spacing between samples, ns.
    pub interval_ns: u64,
    /// Retained samples, oldest first.
    pub samples: Vec<DeviceSample>,
    /// Samples dropped after the buffer filled (drop-newest).
    pub dropped: u64,
}

impl DeviceSeries {
    /// Creates an empty series with the given sampling interval.
    pub fn new(interval_ns: u64) -> Self {
        DeviceSeries {
            interval_ns,
            samples: Vec::new(),
            dropped: 0,
        }
    }

    /// Appends a sample unless the series already holds `max`; a rejected
    /// sample is counted in [`DeviceSeries::dropped`].
    pub fn push_bounded(&mut self, max: usize, sample: DeviceSample) {
        if self.samples.len() >= max {
            self.dropped += 1;
        } else {
            self.samples.push(sample);
        }
    }

    /// Retained sample count.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when no sample was retained.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

/// Attribution of one run's total request latency to device resources.
///
/// Raw totals are nanosecond sums over the simulator's lifetime (matching
/// the `diag_*` counters); fractions are each component divided by the
/// total end-to-end request time (arrival to completion, summed over
/// requests). Components overlap — a multi-page request accrues waits on
/// several planes concurrently, and GC stall time resurfaces as plane wait
/// for the ops queued behind it — so when the raw fractions sum past 1.0
/// they are rescaled proportionally; `other_frac` is whatever the six
/// attributed buckets leave unexplained (flash service time of host
/// operations, DRAM and link transfers, protocol overhead).
///
/// The invariant the proptest suite holds: every fraction lies in
/// `[0, 1]` and the seven fractions sum to at most 1.0 (up to float
/// rounding).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct BottleneckReport {
    /// Total end-to-end request time attributed, ns.
    pub total_latency_ns: u64,
    /// Time operations waited for busy channels, ns (reads + writes).
    pub channel_wait_ns: u64,
    /// Time operations waited for busy dies/planes, ns (reads + writes).
    pub plane_wait_ns: u64,
    /// Die time consumed by GC and wear-leveling migrations, ns.
    pub gc_stall_ns: u64,
    /// Flash service time paid because a cache missed (data cache, CMT,
    /// read-modify-write fetches), ns.
    pub cache_miss_ns: u64,
    /// Host-side time requests waited to enter the full device queue, ns.
    pub queue_wait_ns: u64,
    /// Die time consumed folding SLC-cache blocks into capacity flash, ns
    /// (hybrid device families only; always zero on homogeneous devices).
    #[serde(default)]
    pub slc_migration_ns: u64,
    /// `channel_wait_ns` over the total, rescaled (see type docs).
    pub channel_wait_frac: f64,
    /// `plane_wait_ns` over the total, rescaled.
    pub plane_wait_frac: f64,
    /// `gc_stall_ns` over the total, rescaled.
    pub gc_stall_frac: f64,
    /// `cache_miss_ns` over the total, rescaled.
    pub cache_miss_frac: f64,
    /// `queue_wait_ns` over the total, rescaled.
    pub host_queue_frac: f64,
    /// `slc_migration_ns` over the total, rescaled.
    #[serde(default)]
    pub slc_migration_frac: f64,
    /// Unattributed remainder of the total.
    pub other_frac: f64,
}

impl BottleneckReport {
    /// Builds a report from raw nanosecond totals, normalizing the
    /// fractions so they sum to at most 1.0.
    pub fn from_totals(
        total_latency_ns: u64,
        channel_wait_ns: u64,
        plane_wait_ns: u64,
        gc_stall_ns: u64,
        cache_miss_ns: u64,
        queue_wait_ns: u64,
        slc_migration_ns: u64,
    ) -> Self {
        let mut report = BottleneckReport {
            total_latency_ns,
            channel_wait_ns,
            plane_wait_ns,
            gc_stall_ns,
            cache_miss_ns,
            queue_wait_ns,
            slc_migration_ns,
            ..Default::default()
        };
        if total_latency_ns == 0 {
            return report;
        }
        let total = total_latency_ns as f64;
        let mut fracs = [
            channel_wait_ns as f64 / total,
            plane_wait_ns as f64 / total,
            gc_stall_ns as f64 / total,
            cache_miss_ns as f64 / total,
            queue_wait_ns as f64 / total,
            slc_migration_ns as f64 / total,
        ];
        let sum: f64 = fracs.iter().sum();
        if sum > 1.0 {
            for f in &mut fracs {
                *f /= sum;
            }
        }
        report.channel_wait_frac = fracs[0];
        report.plane_wait_frac = fracs[1];
        report.gc_stall_frac = fracs[2];
        report.cache_miss_frac = fracs[3];
        report.host_queue_frac = fracs[4];
        report.slc_migration_frac = fracs[5];
        report.other_frac = (1.0 - fracs.iter().sum::<f64>()).max(0.0);
        report
    }

    /// The six attributed resources and their fractions, in a stable
    /// order (`other` excluded).
    pub fn fractions(&self) -> [(&'static str, f64); 6] {
        [
            ("channel-wait", self.channel_wait_frac),
            ("plane-busy", self.plane_wait_frac),
            ("gc-stall", self.gc_stall_frac),
            ("cache-miss", self.cache_miss_frac),
            ("host-queue", self.host_queue_frac),
            ("slc-migration", self.slc_migration_frac),
        ]
    }

    /// Name of the resource with the largest attributed fraction, or
    /// `"none"` when nothing was attributed (no requests, or every bucket
    /// zero).
    pub fn dominant(&self) -> &'static str {
        let mut best = ("none", 0.0);
        for (name, frac) in self.fractions() {
            if frac > best.1 {
                best = (name, frac);
            }
        }
        best.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_series_and_bounded_pushes() {
        let mut s = DeviceSeries::new(50);
        assert!(s.is_empty());
        for i in 0..10 {
            s.push_bounded(
                4,
                DeviceSample {
                    t_ns: i * 50,
                    ..Default::default()
                },
            );
        }
        assert_eq!(s.len(), 4);
        assert_eq!(s.dropped, 6);
        assert_eq!(s.samples[3].t_ns, 150, "drop-newest keeps the oldest");
    }

    #[test]
    fn zero_total_is_all_zero() {
        let b = BottleneckReport::from_totals(0, 10, 10, 10, 10, 10, 10);
        assert_eq!(b.channel_wait_frac, 0.0);
        assert_eq!(b.other_frac, 0.0);
        assert_eq!(b.dominant(), "none");
    }

    #[test]
    fn fractions_attribute_and_normalize() {
        let b = BottleneckReport::from_totals(1_000, 200, 100, 50, 25, 125, 25);
        assert!((b.channel_wait_frac - 0.2).abs() < 1e-12);
        assert!((b.host_queue_frac - 0.125).abs() < 1e-12);
        assert!((b.slc_migration_frac - 0.025).abs() < 1e-12);
        assert!((b.other_frac - 0.475).abs() < 1e-12);
        assert_eq!(b.dominant(), "channel-wait");

        // Overlapping components exceeding the total rescale to sum 1.
        let b = BottleneckReport::from_totals(100, 100, 100, 0, 0, 0, 0);
        assert!((b.channel_wait_frac - 0.5).abs() < 1e-12);
        assert!((b.plane_wait_frac - 0.5).abs() < 1e-12);
        assert!(b.other_frac.abs() < 1e-12);
        let sum: f64 = b.fractions().iter().map(|(_, f)| f).sum::<f64>() + b.other_frac;
        assert!(sum <= 1.0 + 1e-9, "sum {sum}");
    }

    #[test]
    fn dominant_picks_the_largest_bucket() {
        let b = BottleneckReport::from_totals(1_000, 10, 20, 500, 30, 40, 0);
        assert_eq!(b.dominant(), "gc-stall");
    }
}
