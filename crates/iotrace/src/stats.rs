//! Trace statistics: summary profiles and histograms for workload
//! characterization reports (the "traditional methods" of §3.1 that
//! AutoBlox's learned clustering is compared against).

use crate::trace::Trace;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A log2-bucketed histogram over `u64` values.
///
/// Bucket `i` covers `[2^i, 2^(i+1))`; bucket 0 also absorbs zero.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Log2Histogram {
    buckets: Vec<u64>,
    count: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Log2Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Log2Histogram {
            buckets: vec![0; 64],
            count: 0,
        }
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        let bucket = if value == 0 {
            0
        } else {
            63 - value.leading_zeros() as usize
        };
        self.buckets[bucket] += 1;
        self.count += 1;
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The smallest value `v` such that at least `quantile` of recorded
    /// values fall in buckets at or below `v`'s bucket (bucket upper bound).
    pub fn quantile(&self, quantile: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (self.count as f64 * quantile.clamp(0.0, 1.0)).ceil() as u64;
        let mut cum = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= target {
                return 1u64 << (i + 1).min(63);
            }
        }
        u64::MAX
    }
}

/// A workload profile computed with the "traditional" characterization
/// methods: read ratio, sequentiality, size/inter-arrival distributions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceProfile {
    /// Trace name.
    pub name: String,
    /// Number of requests.
    pub requests: u64,
    /// Fraction of reads.
    pub read_ratio: f64,
    /// Fraction of strictly sequential requests.
    pub sequential_ratio: f64,
    /// Total bytes moved.
    pub total_bytes: u64,
    /// Trace duration in nanoseconds.
    pub duration_ns: u64,
    /// Offered load in bytes per second.
    pub offered_bps: f64,
    /// Request-size histogram (bytes, log2 buckets).
    pub size_hist: Log2Histogram,
    /// Inter-arrival-time histogram (ns, log2 buckets).
    pub interarrival_hist: Log2Histogram,
    /// Address-jump histogram (sectors, log2 buckets).
    pub jump_hist: Log2Histogram,
    /// Span of addressed sectors (max - min).
    pub address_span_sectors: u64,
}

impl TraceProfile {
    /// Profiles a trace.
    ///
    /// # Examples
    ///
    /// ```
    /// use iotrace::gen::WorkloadKind;
    /// use iotrace::stats::TraceProfile;
    /// let t = WorkloadKind::WebSearch.spec().generate(1_000, 1);
    /// let p = TraceProfile::of(&t);
    /// assert!(p.read_ratio > 0.99);
    /// assert_eq!(p.requests, 1_000);
    /// ```
    pub fn of(trace: &Trace) -> Self {
        let mut size_hist = Log2Histogram::new();
        let mut interarrival_hist = Log2Histogram::new();
        let mut jump_hist = Log2Histogram::new();
        let mut min_lba = u64::MAX;
        let mut max_lba = 0u64;
        let mut prev: Option<&crate::trace::TraceEvent> = None;
        for e in trace {
            size_hist.record(u64::from(e.size_bytes));
            min_lba = min_lba.min(e.lba);
            max_lba = max_lba.max(e.end_lba());
            if let Some(p) = prev {
                interarrival_hist.record(e.timestamp_ns - p.timestamp_ns);
                jump_hist.record(e.lba.abs_diff(p.end_lba()));
            }
            prev = Some(e);
        }
        let duration_ns = trace.duration_ns();
        let total_bytes = trace.total_bytes();
        TraceProfile {
            name: trace.name().to_string(),
            requests: trace.len() as u64,
            read_ratio: trace.read_ratio(),
            sequential_ratio: trace.sequential_ratio(),
            total_bytes,
            duration_ns,
            offered_bps: if duration_ns > 0 {
                total_bytes as f64 / (duration_ns as f64 / 1e9)
            } else {
                0.0
            },
            size_hist,
            interarrival_hist,
            jump_hist,
            address_span_sectors: max_lba.saturating_sub(min_lba.min(max_lba)),
        }
    }
}

impl fmt::Display for TraceProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "trace {:?}: {} requests", self.name, self.requests)?;
        writeln!(
            f,
            "  reads {:.1}%  sequential {:.1}%  offered {:.1} MiB/s",
            self.read_ratio * 100.0,
            self.sequential_ratio * 100.0,
            self.offered_bps / (1 << 20) as f64
        )?;
        writeln!(
            f,
            "  sizes: p50 <= {} B, p99 <= {} B",
            self.size_hist.quantile(0.5),
            self.size_hist.quantile(0.99)
        )?;
        write!(
            f,
            "  inter-arrival: p50 <= {} ns; span {} sectors",
            self.interarrival_hist.quantile(0.5),
            self.address_span_sectors
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::WorkloadKind;
    use crate::trace::{OpKind, TraceEvent};

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Log2Histogram::new();
        for v in [1u64, 2, 2, 4, 4, 4, 4, 1024] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        // p50 falls in the 4-bucket -> upper bound 8.
        assert_eq!(h.quantile(0.5), 8);
        assert!(h.quantile(1.0) >= 2048);
    }

    #[test]
    fn histogram_zero_and_empty() {
        let mut h = Log2Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        h.record(0);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn profile_matches_trace_statistics() {
        let t = WorkloadKind::Database.spec().generate(2_000, 7);
        let p = TraceProfile::of(&t);
        assert_eq!(p.requests, 2_000);
        assert!((p.read_ratio - t.read_ratio()).abs() < 1e-12);
        assert_eq!(p.total_bytes, t.total_bytes());
        assert_eq!(p.duration_ns, t.duration_ns());
        assert!(p.offered_bps > 0.0);
    }

    #[test]
    fn profile_of_empty_trace() {
        let t = Trace::new("empty");
        let p = TraceProfile::of(&t);
        assert_eq!(p.requests, 0);
        assert_eq!(p.offered_bps, 0.0);
        assert_eq!(p.address_span_sectors, 0);
    }

    #[test]
    fn display_is_nonempty() {
        let t = Trace::from_events(
            "d",
            vec![
                TraceEvent::new(0, 0, 4096, OpKind::Read),
                TraceEvent::new(100, 8, 4096, OpKind::Write),
            ],
        );
        let s = TraceProfile::of(&t).to_string();
        assert!(s.contains("2 requests"));
    }

    #[test]
    fn sequential_workload_profiles_sequential() {
        let batch = WorkloadKind::BatchAnalytics.spec().generate(2_000, 9);
        let web = WorkloadKind::WebSearch.spec().generate(2_000, 9);
        let pb = TraceProfile::of(&batch);
        let pw = TraceProfile::of(&web);
        assert!(pb.sequential_ratio > pw.sequential_ratio);
        assert!(pb.size_hist.quantile(0.5) > pw.size_hist.quantile(0.5));
    }
}
