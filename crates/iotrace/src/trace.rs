//! Core block I/O trace model.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Type of a block I/O operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpKind {
    /// Read request.
    Read,
    /// Write request.
    Write,
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpKind::Read => write!(f, "R"),
            OpKind::Write => write!(f, "W"),
        }
    }
}

/// One block I/O request as recorded by a block-layer tracer
/// (e.g. `blktrace`).
///
/// Addresses are in 512-byte sectors, matching Linux block-layer convention;
/// sizes are in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Arrival time in nanoseconds from trace start.
    pub timestamp_ns: u64,
    /// Starting logical block address, in 512-byte sectors.
    pub lba: u64,
    /// Request size in bytes.
    pub size_bytes: u32,
    /// Read or write.
    pub op: OpKind,
}

impl TraceEvent {
    /// Creates an event.
    ///
    /// # Examples
    ///
    /// ```
    /// use iotrace::{OpKind, TraceEvent};
    /// let e = TraceEvent::new(1_000, 2048, 4096, OpKind::Read);
    /// assert_eq!(e.sector_count(), 8);
    /// ```
    pub fn new(timestamp_ns: u64, lba: u64, size_bytes: u32, op: OpKind) -> Self {
        TraceEvent {
            timestamp_ns,
            lba,
            size_bytes,
            op,
        }
    }

    /// Number of 512-byte sectors covered (rounded up).
    pub fn sector_count(&self) -> u64 {
        u64::from(self.size_bytes).div_ceil(512)
    }

    /// First sector past the end of this request.
    pub fn end_lba(&self) -> u64 {
        self.lba + self.sector_count()
    }

    /// `true` for reads.
    pub fn is_read(&self) -> bool {
        self.op == OpKind::Read
    }
}

/// An ordered block I/O trace plus summary statistics.
///
/// Events are kept sorted by timestamp; [`Trace::push`] maintains the
/// invariant by clamping out-of-order arrivals forward.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    name: String,
    events: Vec<TraceEvent>,
}

impl Trace {
    /// Creates an empty, named trace.
    pub fn new(name: impl Into<String>) -> Self {
        Trace {
            name: name.into(),
            events: Vec::new(),
        }
    }

    /// Builds a trace from pre-sorted events; sorts them if needed.
    pub fn from_events(name: impl Into<String>, mut events: Vec<TraceEvent>) -> Self {
        events.sort_by_key(|e| e.timestamp_ns);
        Trace {
            name: name.into(),
            events,
        }
    }

    /// Trace name (workload identifier).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends an event, clamping its timestamp to maintain ordering.
    pub fn push(&mut self, mut event: TraceEvent) {
        if let Some(last) = self.events.last() {
            if event.timestamp_ns < last.timestamp_ns {
                event.timestamp_ns = last.timestamp_ns;
            }
        }
        self.events.push(event);
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if the trace holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The recorded events, oldest first.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Iterates over the events.
    pub fn iter(&self) -> std::slice::Iter<'_, TraceEvent> {
        self.events.iter()
    }

    /// Fraction of read requests, in `[0, 1]`; 0 for an empty trace.
    pub fn read_ratio(&self) -> f64 {
        if self.events.is_empty() {
            return 0.0;
        }
        self.events.iter().filter(|e| e.is_read()).count() as f64 / self.events.len() as f64
    }

    /// Total bytes moved.
    pub fn total_bytes(&self) -> u64 {
        self.events.iter().map(|e| u64::from(e.size_bytes)).sum()
    }

    /// Duration between the first and last event, in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        match (self.events.first(), self.events.last()) {
            (Some(f), Some(l)) => l.timestamp_ns - f.timestamp_ns,
            _ => 0,
        }
    }

    /// Fraction of requests whose start sector equals the previous request's
    /// end sector (strict sequentiality).
    pub fn sequential_ratio(&self) -> f64 {
        if self.events.len() < 2 {
            return 0.0;
        }
        let seq = self
            .events
            .windows(2)
            .filter(|w| w[1].lba == w[0].end_lba())
            .count();
        seq as f64 / (self.events.len() - 1) as f64
    }

    /// Rebases all block addresses so the smallest becomes zero — the
    /// "relative address space" normalization of §3.1, which removes the
    /// allocator-dependent absolute placement.
    pub fn rebase_addresses(&mut self) {
        let min = self.events.iter().map(|e| e.lba).min().unwrap_or(0);
        for e in &mut self.events {
            e.lba -= min;
        }
    }

    /// Returns a sub-trace containing events `[start, start+len)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&self, start: usize, len: usize) -> Trace {
        Trace {
            name: format!("{}[{start}..{}]", self.name, start + len),
            events: self.events[start..start + len].to_vec(),
        }
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a TraceEvent;
    type IntoIter = std::slice::Iter<'a, TraceEvent>;

    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

impl Extend<TraceEvent> for Trace {
    fn extend<T: IntoIterator<Item = TraceEvent>>(&mut self, iter: T) {
        for e in iter {
            self.push(e);
        }
    }
}

impl FromIterator<TraceEvent> for Trace {
    fn from_iter<T: IntoIterator<Item = TraceEvent>>(iter: T) -> Self {
        Trace::from_events("unnamed", iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64, lba: u64, size: u32, op: OpKind) -> TraceEvent {
        TraceEvent::new(t, lba, size, op)
    }

    #[test]
    fn sector_count_rounds_up() {
        assert_eq!(ev(0, 0, 512, OpKind::Read).sector_count(), 1);
        assert_eq!(ev(0, 0, 513, OpKind::Read).sector_count(), 2);
        assert_eq!(ev(0, 0, 4096, OpKind::Read).sector_count(), 8);
    }

    #[test]
    fn push_maintains_order() {
        let mut t = Trace::new("x");
        t.push(ev(100, 0, 512, OpKind::Read));
        t.push(ev(50, 8, 512, OpKind::Write)); // out of order: clamped
        assert_eq!(t.events()[1].timestamp_ns, 100);
    }

    #[test]
    fn from_events_sorts() {
        let t = Trace::from_events(
            "x",
            vec![ev(200, 0, 512, OpKind::Read), ev(100, 0, 512, OpKind::Read)],
        );
        assert_eq!(t.events()[0].timestamp_ns, 100);
    }

    #[test]
    fn read_ratio_and_bytes() {
        let t = Trace::from_events(
            "x",
            vec![
                ev(0, 0, 4096, OpKind::Read),
                ev(1, 8, 4096, OpKind::Read),
                ev(2, 16, 8192, OpKind::Write),
                ev(3, 32, 4096, OpKind::Read),
            ],
        );
        assert_eq!(t.read_ratio(), 0.75);
        assert_eq!(t.total_bytes(), 20480);
        assert_eq!(t.duration_ns(), 3);
    }

    #[test]
    fn sequential_ratio_detects_streams() {
        // 4 KiB back-to-back requests: fully sequential.
        let seq: Vec<TraceEvent> = (0..10).map(|i| ev(i, i * 8, 4096, OpKind::Read)).collect();
        let t = Trace::from_events("seq", seq);
        assert_eq!(t.sequential_ratio(), 1.0);

        let rnd = Trace::from_events(
            "rnd",
            vec![
                ev(0, 1000, 4096, OpKind::Read),
                ev(1, 5, 4096, OpKind::Read),
                ev(2, 90_000, 4096, OpKind::Read),
            ],
        );
        assert_eq!(rnd.sequential_ratio(), 0.0);
    }

    #[test]
    fn rebase_addresses_zeroes_minimum() {
        let mut t = Trace::from_events(
            "x",
            vec![ev(0, 100, 512, OpKind::Read), ev(1, 50, 512, OpKind::Read)],
        );
        t.rebase_addresses();
        assert_eq!(t.events().iter().map(|e| e.lba).min(), Some(0));
        assert_eq!(t.events().iter().map(|e| e.lba).max(), Some(50));
    }

    #[test]
    fn empty_trace_statistics() {
        let t = Trace::new("empty");
        assert!(t.is_empty());
        assert_eq!(t.read_ratio(), 0.0);
        assert_eq!(t.duration_ns(), 0);
        assert_eq!(t.sequential_ratio(), 0.0);
    }

    #[test]
    fn slice_subsets_events() {
        let t = Trace::from_events("x", (0..10).map(|i| ev(i, i, 512, OpKind::Read)).collect());
        let s = t.slice(2, 3);
        assert_eq!(s.len(), 3);
        assert_eq!(s.events()[0].timestamp_ns, 2);
    }

    #[test]
    fn collect_and_extend() {
        let mut t: Trace = (0..5).map(|i| ev(i, i, 512, OpKind::Write)).collect();
        t.extend((5..8).map(|i| ev(i, i, 512, OpKind::Read)));
        assert_eq!(t.len(), 8);
        assert_eq!(t.iter().count(), 8);
        assert_eq!((&t).into_iter().count(), 8);
    }
}
