//! The per-layer ledger: self times and busy sums over one traced unit's span
//! tree.
//!
//! The benchmark opens a `bench.*` span around every call it makes into a
//! layer; the program's own spans (`prune.coarse`, `tuner.iteration`,
//! `validator.simulate`, `sim.run`, ...) nest beneath them through the same
//! thread-local stack, so one drained ring holds the whole tree.
//!
//! A span's self time is its duration minus the part of it its children
//! cover. Children that ran on pool workers overlap each other, so coverage
//! is the union of their intervals: what the parent was blocked on, not what
//! the workers summed to. Worker time is reported separately as busy sums
//! per span name.

use std::collections::HashMap;
use telemetry::span::SpanRecord;

/// The span the benchmark opens around a unit's whole measured section.
pub const ROOT: &str = "bench.measured";

#[derive(Debug)]
pub struct Ledger {
    spans: Vec<SpanRecord>,
    /// Per span: duration not covered by any child.
    self_ns: Vec<u64>,
    /// Per span: the part covered by children on other threads only, which
    /// is time the span's own thread spent blocked on the pool.
    pool_blocked_ns: Vec<u64>,
}

/// The identity the ledger must satisfy to be trusted, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Blocking {
    /// Duration of the [`ROOT`] span.
    pub root_s: f64,
    /// Part of the root its direct children (the layer boundaries) cover.
    pub covered_s: f64,
    /// Self times of every span on the root's thread, summed.
    pub self_sum_s: f64,
    /// Time the root's thread spent blocked on pool workers.
    pub pool_blocked_s: f64,
}

impl Blocking {
    /// Share of the measured section inside some layer-boundary span.
    pub fn coverage(&self) -> f64 {
        self.covered_s / self.root_s
    }

    /// `(self times + pool-blocked time) / root`: 1.0 when every span found
    /// its parent and nothing was dropped.
    pub fn accounted(&self) -> f64 {
        (self.self_sum_s + self.pool_blocked_s) / self.root_s
    }
}

/// Length of the union of `intervals` after clipping each to `lo..hi`.
fn union_len(intervals: &mut Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.retain_mut(|iv| {
        iv.0 = iv.0.max(lo);
        iv.1 = iv.1.min(hi);
        iv.0 < iv.1
    });
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        if end > reach {
            total += end - start.max(reach);
            reach = end;
        }
    }
    total
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

impl Ledger {
    pub fn new(spans: Vec<SpanRecord>) -> Self {
        // Span ids are content-derived and may repeat (a racing duplicate
        // keeps one identity), so children are looked up by parent id and
        // clipped to each parent's own interval.
        let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
        for (i, s) in spans.iter().enumerate() {
            children.entry(s.parent).or_default().push(i);
        }
        let mut self_ns = Vec::with_capacity(spans.len());
        let mut pool_blocked_ns = Vec::with_capacity(spans.len());
        for s in &spans {
            let (lo, hi) = (s.start_ns, s.start_ns + s.dur_ns);
            let kids = children.get(&s.id).map_or(&[][..], Vec::as_slice);
            let interval = |&i: &usize| {
                let c = &spans[i];
                (c.start_ns, c.start_ns + c.dur_ns)
            };
            let mut all: Vec<_> = kids.iter().map(interval).collect();
            let mut same_thread: Vec<_> = kids
                .iter()
                .filter(|&&i| spans[i].thread == s.thread)
                .map(interval)
                .collect();
            let covered = union_len(&mut all, lo, hi);
            self_ns.push(s.dur_ns - covered);
            pool_blocked_ns.push(covered - union_len(&mut same_thread, lo, hi));
        }
        Ledger {
            spans,
            self_ns,
            pool_blocked_ns,
        }
    }

    pub fn span_count(&self) -> u64 {
        self.spans.len() as u64
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SpanRecord> {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Summed duration of every span called `name`, over all threads: busy
    /// time when the spans ran on pool workers, wall time otherwise.
    pub fn total_s(&self, name: &str) -> f64 {
        secs(self.named(name).map(|s| s.dur_ns).sum())
    }

    /// Durations of every span called `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.named(name).map(|s| s.dur_ns as f64 / 1e6).collect()
    }

    /// Summed self time of every span whose name is in `names`.
    pub fn self_s(&self, names: &[&str]) -> f64 {
        secs(
            self.spans
                .iter()
                .zip(&self.self_ns)
                .filter(|(s, _)| names.contains(&s.name))
                .map(|(_, &ns)| ns)
                .sum(),
        )
    }

    /// The blocking identity over the [`ROOT`] span; `None` when the unit
    /// recorded no root.
    pub fn blocking(&self) -> Option<Blocking> {
        let root = self.named(ROOT).next()?;
        let (lo, hi) = (root.start_ns, root.start_ns + root.dur_ns);
        let mut top: Vec<_> = self
            .spans
            .iter()
            .filter(|s| s.parent == root.id)
            .map(|s| (s.start_ns, s.start_ns + s.dur_ns))
            .collect();
        let on_root_thread = |per_span: &[u64]| -> u64 {
            self.spans
                .iter()
                .zip(per_span)
                .filter(|(s, _)| s.thread == root.thread)
                .map(|(_, &ns)| ns)
                .sum()
        };
        Some(Blocking {
            root_s: secs(root.dur_ns),
            covered_s: secs(union_len(&mut top, lo, hi)),
            self_sum_s: secs(on_root_thread(&self.self_ns)),
            pool_blocked_s: secs(on_root_thread(&self.pool_blocked_ns)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: u64,
        parent: u64,
        name: &'static str,
        start_ns: u64,
        dur_ns: u64,
        thread: u64,
    ) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name,
            disc: 0,
            start_ns,
            dur_ns,
            thread,
        }
    }

    #[test]
    fn nested_spans_subtract_children_from_parents() {
        // root 0..1000; layer 100..900; two sequential grandchildren.
        let l = Ledger::new(vec![
            span(3, 2, "leaf", 200, 100, 1),
            span(4, 2, "leaf", 400, 300, 1),
            span(2, 1, "layer", 100, 800, 1),
            span(1, 0, ROOT, 0, 1000, 1),
        ]);
        assert_eq!(l.self_s(&["leaf"]), secs(400));
        assert_eq!(l.self_s(&["layer"]), secs(400));
        assert_eq!(l.self_s(&[ROOT]), secs(200));
        assert_eq!(l.total_s("leaf"), secs(400));
        let b = l.blocking().unwrap();
        assert_eq!(b.root_s, secs(1000));
        assert_eq!(b.covered_s, secs(800));
        assert_eq!(b.pool_blocked_s, 0.0);
        assert!((b.accounted() - 1.0).abs() < 1e-12);
        assert!((b.coverage() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn parallel_children_cover_their_union_not_their_sum() {
        // A fan-out span 0..1000 on thread 1 whose two workers (threads 2
        // and 3) overlap on 300..600.
        let l = Ledger::new(vec![
            span(10, 2, "work", 100, 500, 2),
            span(11, 2, "work", 300, 600, 3),
            span(2, 1, "fanout", 0, 1000, 1),
            span(1, 0, ROOT, 0, 1000, 1),
        ]);
        // Busy sum counts both workers in full; the parent was blocked for
        // the union (100..900) only.
        assert_eq!(l.total_s("work"), secs(1100));
        assert_eq!(l.self_s(&["fanout"]), secs(200));
        let b = l.blocking().unwrap();
        assert_eq!(b.pool_blocked_s, secs(800));
        assert_eq!(b.self_sum_s, secs(200));
        assert!((b.accounted() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn children_are_clipped_to_the_parent_and_orphans_break_the_identity() {
        // A child that outlives its parent only covers the shared part.
        let l = Ledger::new(vec![
            span(2, 1, "late", 900, 500, 1),
            span(1, 0, ROOT, 0, 1000, 1),
        ]);
        assert_eq!(l.self_s(&[ROOT]), secs(900));
        // A span whose parent was dropped is counted on top of the root.
        let l = Ledger::new(vec![
            span(5, 99, "orphan", 100, 400, 1),
            span(1, 0, ROOT, 0, 1000, 1),
        ]);
        assert!(l.blocking().unwrap().accounted() > 1.3);
        assert!(Ledger::new(Vec::new()).blocking().is_none());
    }
}
