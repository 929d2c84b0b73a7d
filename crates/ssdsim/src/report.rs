//! Simulation results: latency distribution, throughput, cache behaviour,
//! GC activity, and energy.

use crate::flash::FlashStats;
use crate::observe::BottleneckReport;
use crate::power::EnergyReport;
use serde::{Deserialize, Serialize};

/// Latency distribution summary in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Number of requests observed.
    pub count: u64,
    /// Mean latency, ns.
    pub mean_ns: f64,
    /// Median latency, ns.
    pub p50_ns: u64,
    /// 95th percentile latency, ns.
    pub p95_ns: u64,
    /// 99th percentile latency, ns.
    pub p99_ns: u64,
    /// Maximum latency, ns.
    pub max_ns: u64,
}

impl LatencySummary {
    /// Builds a summary from raw per-request latencies, reordering the
    /// slice as it selects the percentiles.
    ///
    /// Returns the default (all zeros) summary for an empty slice.
    pub fn from_latencies(latencies: &mut [u64]) -> Self {
        if latencies.is_empty() {
            return LatencySummary::default();
        }
        let count = latencies.len() as u64;
        let sum: u128 = latencies.iter().map(|&l| u128::from(l)).sum();
        let max_ns = *latencies.iter().max().expect("nonempty");
        // Three order statistics, ascending, each selected within what the
        // previous selection left to its right: the values a full sort would
        // put at those indices, in linear time.
        let mut sorted_below = 0;
        let mut pct = |p: f64| -> u64 {
            let idx = ((latencies.len() as f64 - 1.0) * p).round() as usize;
            if idx >= sorted_below {
                latencies[sorted_below..].select_nth_unstable(idx - sorted_below);
                sorted_below = idx + 1;
            }
            latencies[idx]
        };
        LatencySummary {
            count,
            mean_ns: sum as f64 / count as f64,
            p50_ns: pct(0.50),
            p95_ns: pct(0.95),
            p99_ns: pct(0.99),
            max_ns,
        }
    }
}

/// Number of logarithmic latency buckets in a [`LatencyBuckets`] histogram.
pub const LATENCY_BUCKET_COUNT: usize = 16;

/// Simulated-time histogram of request latencies on a log scale.
///
/// Bucket `i` counts requests whose latency fell in
/// `[BASE_NS * 2^i, BASE_NS * 2^(i+1))` (bucket 0 also absorbs anything
/// faster; the last bucket absorbs anything slower). With `BASE_NS` = 1 µs
/// the histogram spans 1 µs to ~65 ms, covering everything from a DRAM
/// cache hit to a GC-stalled worst case.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct LatencyBuckets {
    /// Per-bucket request counts.
    pub counts: [u64; LATENCY_BUCKET_COUNT],
}

impl LatencyBuckets {
    /// Lower bound of bucket 0, ns.
    pub const BASE_NS: u64 = 1_000;

    /// Records one request latency.
    pub fn observe(&mut self, latency_ns: u64) {
        let scaled = (latency_ns / Self::BASE_NS).max(1);
        let idx = (63 - scaled.leading_zeros()) as usize; // floor(log2(scaled))
        self.counts[idx.min(LATENCY_BUCKET_COUNT - 1)] += 1;
    }

    /// Inclusive lower bound of bucket `i`, ns.
    pub fn bucket_floor_ns(i: usize) -> u64 {
        Self::BASE_NS << i.min(LATENCY_BUCKET_COUNT - 1)
    }

    /// Total requests recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Estimates the `p`-th percentile (`0.0..=1.0`) from the histogram by
    /// linear interpolation within the containing bucket. Returns `0` for an
    /// empty histogram.
    ///
    /// The estimate is bucket-resolution-bounded: exact at bucket edges,
    /// within a factor of two inside a bucket — good enough to detect
    /// tail-latency regressions between runs, which is what it exists for.
    pub fn percentile_ns(&self, p: f64) -> u64 {
        let total = self.total();
        if total == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 1.0);
        // 1-based rank of the target request, at least 1.
        let rank = ((p * total as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if cum + c >= rank {
                let within = rank - cum; // 1..=c
                let floor = Self::bucket_floor_ns(i);
                // Width of the bucket equals its floor (log2 buckets); the
                // last bucket is open-ended but we cap at 2x its floor.
                let width = floor;
                let frac = within as f64 / c as f64;
                return floor + (frac * width as f64) as u64;
            }
            cum += c;
        }
        Self::bucket_floor_ns(LATENCY_BUCKET_COUNT - 1) * 2
    }

    /// Derives the standard tail-latency percentiles from the histogram.
    pub fn percentiles(&self) -> HistogramPercentiles {
        HistogramPercentiles {
            p50_ns: self.percentile_ns(0.50),
            p95_ns: self.percentile_ns(0.95),
            p99_ns: self.percentile_ns(0.99),
        }
    }
}

/// Tail-latency percentiles estimated from a [`LatencyBuckets`] histogram
/// (bucket-resolution-bounded; see [`LatencyBuckets::percentile_ns`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct HistogramPercentiles {
    /// Estimated median latency, ns.
    pub p50_ns: u64,
    /// Estimated 95th-percentile latency, ns.
    pub p95_ns: u64,
    /// Estimated 99th-percentile latency, ns.
    pub p99_ns: u64,
}

/// Where flash-read time went, on average (diagnostic decomposition).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ReadBreakdown {
    /// Flash reads issued (host data + mapping + migrations).
    pub flash_reads: u64,
    /// Of which translation-page (CMT miss) reads.
    pub mapping_reads: u64,
    /// Mean time a read waited for its die to become available, ns.
    pub mean_die_wait_ns: f64,
    /// Mean time a read waited for its channel, ns.
    pub mean_channel_wait_ns: f64,
}

/// Where flash-program time went, on average (the write-side counterpart
/// of [`ReadBreakdown`]; GC migrations are charged separately and show up
/// in [`BottleneckReport::gc_stall_ns`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct WriteBreakdown {
    /// Flash page programs issued (host destages + metadata writes).
    pub flash_programs: u64,
    /// Mean time a program waited for its die, ns (programs that merged
    /// into an executing multiplane window waited zero).
    pub mean_die_wait_ns: f64,
    /// Mean time a program's data transfer waited for its channel, ns.
    pub mean_channel_wait_ns: f64,
}

/// Full result of simulating one trace against one configuration.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// All-request latency summary.
    pub latency: LatencySummary,
    /// Read-only latency summary.
    pub read_latency: LatencySummary,
    /// Write-only latency summary.
    pub write_latency: LatencySummary,
    /// Host-visible throughput in bytes per second.
    pub throughput_bps: f64,
    /// Wall-clock duration of the simulated run, ns.
    pub makespan_ns: u64,
    /// Bytes transferred for the host.
    pub host_bytes: u64,
    /// Data-cache hit fraction (reads).
    pub read_cache_hit_rate: f64,
    /// Cached-mapping-table hit fraction.
    pub cmt_hit_rate: f64,
    /// Data-cache evictions (pages displaced by capacity pressure, across
    /// the simulator's lifetime — matching the hit-rate counters).
    pub data_cache_evictions: u64,
    /// Cached-mapping-table evictions (translation pages displaced).
    pub cmt_evictions: u64,
    /// Log-scale request-latency histogram for this run.
    pub latency_buckets: LatencyBuckets,
    /// Percentiles estimated from `latency_buckets` (not the exact
    /// per-request summaries above — these are what cross-run diffs use,
    /// because histograms aggregate losslessly across runs).
    pub histogram_percentiles: HistogramPercentiles,
    /// Flash-array statistics (programs, erases, GC, wear leveling).
    pub flash: FlashStats,
    /// Read-path wait decomposition.
    pub read_breakdown: ReadBreakdown,
    /// Write-path wait decomposition.
    pub write_breakdown: WriteBreakdown,
    /// Per-resource latency attribution for this run (always populated —
    /// built from the always-on wait counters).
    pub bottleneck: BottleneckReport,
    /// Write amplification: physical programs / host page-writes (0 when
    /// the host wrote nothing).
    pub write_amplification: f64,
    /// Energy breakdown.
    pub energy: EnergyReport,
    /// Average power draw, watts.
    pub average_power_w: f64,
}

impl SimReport {
    /// Mean latency in microseconds (convenience for reporting).
    pub fn mean_latency_us(&self) -> f64 {
        self.latency.mean_ns / 1000.0
    }

    /// Throughput in MiB/s (convenience for reporting).
    pub fn throughput_mibps(&self) -> f64 {
        self.throughput_bps / (1024.0 * 1024.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_distribution() {
        let mut lats: Vec<u64> = (1..=100).collect();
        let s = LatencySummary::from_latencies(&mut lats);
        assert_eq!(s.count, 100);
        assert!((s.mean_ns - 50.5).abs() < 1e-9);
        assert_eq!(s.p50_ns, 51); // index round(99*0.5)=50 -> value 51
        assert_eq!(s.p95_ns, 95);
        assert_eq!(s.p99_ns, 99);
        assert_eq!(s.max_ns, 100);
    }

    #[test]
    fn empty_summary_is_zero() {
        let s = LatencySummary::from_latencies(&mut Vec::new());
        assert_eq!(s, LatencySummary::default());
    }

    #[test]
    fn unsorted_input_is_handled() {
        let mut lats = vec![5, 1, 9, 3];
        let s = LatencySummary::from_latencies(&mut lats);
        assert_eq!(s.max_ns, 9);
        assert_eq!(s.count, 4);
    }

    #[test]
    fn latency_buckets_are_logarithmic() {
        let mut b = LatencyBuckets::default();
        b.observe(0); // absorbed by bucket 0
        b.observe(999);
        b.observe(1_000);
        b.observe(1_999);
        b.observe(2_000);
        b.observe(u64::MAX); // absorbed by the last bucket
        assert_eq!(b.counts[0], 4);
        assert_eq!(b.counts[1], 1);
        assert_eq!(b.counts[LATENCY_BUCKET_COUNT - 1], 1);
        assert_eq!(b.total(), 6);
        assert_eq!(LatencyBuckets::bucket_floor_ns(0), 1_000);
        assert_eq!(LatencyBuckets::bucket_floor_ns(3), 8_000);
    }

    #[test]
    fn bucket_boundaries_split_exactly() {
        let mut b = LatencyBuckets::default();
        for i in 0..LATENCY_BUCKET_COUNT {
            b.observe(LatencyBuckets::bucket_floor_ns(i));
        }
        for i in 0..LATENCY_BUCKET_COUNT - 1 {
            assert_eq!(b.counts[i], 1, "bucket {i}");
        }
        // The last floor lands in the last bucket alongside nothing else.
        assert_eq!(b.counts[LATENCY_BUCKET_COUNT - 1], 1);
    }

    #[test]
    fn percentiles_of_known_histogram() {
        // 100 requests in bucket 0 ([1000, 2000)): every percentile lies in
        // that bucket and interpolates by rank.
        let mut b = LatencyBuckets::default();
        b.counts[0] = 100;
        assert_eq!(b.percentile_ns(0.50), 1_500);
        assert_eq!(b.percentile_ns(0.99), 1_990);
        assert_eq!(b.percentile_ns(1.0), 2_000);

        // 90 fast + 10 slow: p50 in the fast bucket, p95/p99 in the slow
        // one ([8000, 16000)).
        let mut b = LatencyBuckets::default();
        b.counts[0] = 90;
        b.counts[3] = 10;
        let p = b.percentiles();
        assert!(p.p50_ns >= 1_000 && p.p50_ns < 2_000, "p50 {}", p.p50_ns);
        assert!(p.p95_ns >= 8_000 && p.p95_ns <= 16_000, "p95 {}", p.p95_ns);
        assert!(p.p99_ns >= 8_000 && p.p99_ns <= 16_000, "p99 {}", p.p99_ns);
        assert!(p.p95_ns < p.p99_ns, "higher percentile is later in bucket");
    }

    #[test]
    fn percentiles_edge_cases() {
        let empty = LatencyBuckets::default();
        assert_eq!(empty.percentile_ns(0.99), 0);
        assert_eq!(empty.percentiles(), HistogramPercentiles::default());

        // A single request: all percentiles land in its bucket.
        let mut one = LatencyBuckets::default();
        one.observe(5_000); // bucket 2: [4000, 8000)
        for p in [0.0, 0.5, 0.99, 1.0] {
            let v = one.percentile_ns(p);
            assert!((4_000..=8_000).contains(&v), "p{p} -> {v}");
        }

        // Everything in the open-ended last bucket stays bounded.
        let mut tail = LatencyBuckets::default();
        tail.counts[LATENCY_BUCKET_COUNT - 1] = 10;
        let v = tail.percentile_ns(0.99);
        let floor = LatencyBuckets::bucket_floor_ns(LATENCY_BUCKET_COUNT - 1);
        assert!(v >= floor && v <= floor * 2);
    }

    #[test]
    fn percentiles_are_monotone_in_p() {
        let mut b = LatencyBuckets::default();
        for (i, n) in [(0, 500), (1, 300), (2, 150), (5, 40), (9, 10)] {
            b.counts[i] = n;
        }
        let mut last = 0;
        for p in [0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
            let v = b.percentile_ns(p);
            assert!(v >= last, "p{p}: {v} < {last}");
            last = v;
        }
    }

    #[test]
    fn unit_conversions() {
        let r = SimReport {
            latency: LatencySummary {
                mean_ns: 50_000.0,
                ..Default::default()
            },
            throughput_bps: 1024.0 * 1024.0 * 3.0,
            ..Default::default()
        };
        assert!((r.mean_latency_us() - 50.0).abs() < 1e-9);
        assert!((r.throughput_mibps() - 3.0).abs() < 1e-9);
    }
}
