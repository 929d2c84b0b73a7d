//! Device observatory: per-run bottleneck attribution.
//!
//! [`BottleneckReport`] is an end-of-run attribution of total request
//! latency into channel-wait / plane-busy / GC-stall / cache-miss /
//! host-queueing / SLC-migration fractions, built from the simulator's
//! always-on wait counters (so it is populated even with telemetry off).
//! It is a pure function of the (configuration, trace) pair — no wall
//! clock, no randomness — so it is bit-identical across thread counts and
//! back-to-back runs, which is what lets the regression gate assert on it.

use serde::{Deserialize, Serialize};

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
