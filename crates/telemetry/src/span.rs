//! Structured span tracing: nested, thread-aware, deterministic.
//!
//! A [`Span`] is an RAII guard around one timed region of the pipeline
//! (a simulator replay, a tuner iteration, a pruning sweep). Spans nest
//! through a thread-local stack, cross worker-pool boundaries via
//! [`adopt_parent`], and carry **content-derived deterministic ids**: a
//! span's id is a hash of its parent id, its name, and a discriminator —
//! either an explicit caller-supplied key ([`Span::enter_keyed`], for work
//! items that may execute on any worker thread) or a per-thread sequence
//! number ([`Span::enter`], for strictly sequential regions). Because ids
//! never depend on wall-clock time or scheduling, the canonical span tree
//! of a run is identical at `AUTOBLOX_THREADS=1` and `=4`.
//!
//! Completed spans land in a **bounded ring buffer** guarded by a plain
//! mutex held only for a push or a drain — never across I/O — with a drop
//! counter for overflow, so the instrumented hot path cannot block on a
//! slow journal consumer. While tracing is disabled (the default) entering
//! a span costs one relaxed atomic load and performs **no allocation**
//! (enforced by `tests/disabled_alloc.rs`).
//!
//! # Examples
//!
//! ```
//! telemetry::span::set_tracing(true);
//! {
//!     let _outer = telemetry::span::Span::enter("outer");
//!     let _inner = telemetry::span::Span::enter_keyed("inner", 7);
//! }
//! let mut spans = Vec::new();
//! telemetry::span::drain_spans(&mut spans);
//! telemetry::span::set_tracing(false);
//! assert_eq!(spans.len(), 2);
//! assert_eq!(spans[0].name, "inner"); // inner closed first
//! assert_eq!(spans[0].parent, spans[1].id);
//! ```

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::Counter;

/// The process-wide tracing switch; off by default and independent of the
/// telemetry switch so counter-only runs never pay for span recording.
static TRACING: AtomicBool = AtomicBool::new(false);

/// Spans dropped because the ring buffer was full.
static DROPPED: Counter = Counter::new();

/// Next thread ordinal for [`SpanRecord::thread`].
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

/// Default capacity of the completed-span ring buffer.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// FNV-1a offset basis / prime (same constants as the validator's
/// `ConfigKey`, reused for span identity hashing).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One completed span, as drained from the ring buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Deterministic span id (content-derived, never zero).
    pub id: u64,
    /// Parent span id; `0` for a root span.
    pub parent: u64,
    /// Static span name (e.g. `sim.run`, `tuner.iteration`).
    pub name: &'static str,
    /// Discriminator the id was derived from: the caller's key for
    /// [`Span::enter_keyed`], a per-thread sequence number otherwise.
    pub disc: u64,
    /// Start time relative to the tracing epoch, ns.
    pub start_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
    /// Ordinal of the OS thread the span ran on (diagnostic only — not
    /// part of the span's identity, so canonical trees stay thread-count
    /// invariant).
    pub thread: u64,
}

struct Ring {
    buf: VecDeque<SpanRecord>,
    cap: usize,
}

fn ring() -> &'static Mutex<Ring> {
    static RING: OnceLock<Mutex<Ring>> = OnceLock::new();
    RING.get_or_init(|| {
        Mutex::new(Ring {
            buf: VecDeque::new(),
            cap: DEFAULT_RING_CAPACITY,
        })
    })
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// One frame of the thread-local span stack: the span (or adopted parent)
/// id, and whether the frame came from [`adopt_parent`].
struct Frame {
    id: u64,
    adopted: bool,
}

#[derive(Default)]
struct ThreadCtx {
    stack: Vec<Frame>,
    /// Per-(parent, name) sequence counters for [`Span::enter`].
    seq: HashMap<(u64, &'static str), u64>,
    /// This thread's ordinal (assigned on first traced span).
    ordinal: u64,
}

thread_local! {
    static CTX: RefCell<ThreadCtx> = RefCell::new(ThreadCtx::default());
}

/// Turns span tracing on or off for the whole process. Enabling also pins
/// the tracing epoch that [`SpanRecord::start_ns`] is measured from.
pub fn set_tracing(on: bool) {
    if on {
        let _ = epoch();
    }
    TRACING.store(on, Ordering::Relaxed);
}

/// Whether span tracing is currently enabled (one relaxed load).
#[inline]
pub fn tracing_enabled() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Replaces the ring-buffer capacity (existing contents are kept up to the
/// new capacity; newest records are discarded first on shrink).
pub fn set_ring_capacity(cap: usize) {
    let mut ring = lock_ring();
    ring.cap = cap.max(1);
    while ring.buf.len() > ring.cap {
        ring.buf.pop_back();
        DROPPED.inc();
    }
}

/// Moves every buffered span into `out` (oldest first).
pub fn drain_spans(out: &mut Vec<SpanRecord>) {
    let mut ring = lock_ring();
    out.extend(ring.buf.drain(..));
}

/// Spans dropped so far because the ring buffer was full.
pub fn dropped_spans() -> u64 {
    DROPPED.get()
}

/// Clears the ring buffer, the drop counter, and the **calling thread's**
/// sequence counters, so two runs traced back-to-back in one process
/// produce identical span ids. Worker-pool helpers outlive their batches
/// but clear their own counters as each batch starts
/// ([`clear_thread_sequences`]), so resetting the calling thread is
/// sufficient for the sequential pipeline.
pub fn reset_tracing_state() {
    lock_ring().buf.clear();
    DROPPED.reset();
    clear_thread_sequences();
}

/// Clears the calling thread's [`Span::enter`] sequence counters, so its
/// next sequential spans are numbered as on a freshly spawned thread. A
/// persistent pool helper calls this as it joins each batch.
pub fn clear_thread_sequences() {
    CTX.with(|ctx| ctx.borrow_mut().seq.clear());
}

fn lock_ring() -> std::sync::MutexGuard<'static, Ring> {
    ring()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The current innermost span id on this thread (`0` when tracing is off
/// or no span is open). Capture this before fanning work out to a pool and
/// hand it to [`adopt_parent`] inside each worker.
#[inline]
pub fn current_span() -> u64 {
    if !tracing_enabled() {
        return 0;
    }
    CTX.with(|ctx| ctx.borrow().stack.last().map(|f| f.id).unwrap_or(0))
}

/// Guard that re-parents spans opened on this thread under `parent` (see
/// [`adopt_parent`]).
#[must_use = "dropping the guard immediately un-adopts the parent"]
pub struct ParentGuard {
    active: bool,
}

/// Installs `parent` as the ambient parent for spans subsequently opened
/// on this thread, until the returned guard drops. A `parent` of `0` (or
/// tracing being disabled) yields an inert guard, so worker pools can call
/// this unconditionally.
pub fn adopt_parent(parent: u64) -> ParentGuard {
    if !tracing_enabled() || parent == 0 {
        return ParentGuard { active: false };
    }
    CTX.with(|ctx| {
        ctx.borrow_mut().stack.push(Frame {
            id: parent,
            adopted: true,
        });
    });
    ParentGuard { active: true }
}

impl Drop for ParentGuard {
    fn drop(&mut self) {
        if self.active {
            CTX.with(|ctx| {
                let popped = ctx.borrow_mut().stack.pop();
                debug_assert!(popped.is_some_and(|f| f.adopted), "unbalanced adopt_parent");
            });
        }
    }
}

/// Derives a content key for [`Span::enter_keyed`] from a string (FNV-1a).
pub fn key_str(s: &str) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in s.as_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// Hashes a span's identity from its parent, name, and discriminator.
/// Keyed and sequential discriminators hash into disjoint id spaces.
fn span_id(parent: u64, name: &str, disc: u64, keyed: bool) -> u64 {
    let mut h = FNV_OFFSET;
    for chunk in [parent, disc, u64::from(keyed)] {
        for b in chunk.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }
    for &b in name.as_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h.max(1)
}

struct ActiveSpan {
    id: u64,
    parent: u64,
    name: &'static str,
    disc: u64,
    start: Instant,
    thread: u64,
}

/// An RAII guard for one traced region; see the [module docs](self).
///
/// While tracing is disabled the guard is inert: no allocation, no clock
/// read, no thread-local access.
#[must_use = "a span measures the scope it is alive for"]
pub struct Span(Option<ActiveSpan>);

impl Span {
    /// Opens a span whose discriminator is a per-thread `(parent, name)`
    /// sequence number. Deterministic for regions that execute
    /// sequentially on one thread (the outer pipeline); inside a parallel
    /// fan-out use [`Span::enter_keyed`] with a content-derived key.
    #[inline]
    pub fn enter(name: &'static str) -> Span {
        if !tracing_enabled() {
            return Span(None);
        }
        Span::open(name, None)
    }

    /// Opens a span with an explicit content-derived discriminator (e.g. a
    /// configuration fingerprint or an iteration index), making its id
    /// independent of which thread executes it.
    #[inline]
    pub fn enter_keyed(name: &'static str, key: u64) -> Span {
        if !tracing_enabled() {
            return Span(None);
        }
        Span::open(name, Some(key))
    }

    #[cold]
    fn open(name: &'static str, key: Option<u64>) -> Span {
        let start = Instant::now();
        CTX.with(|ctx| {
            let mut ctx = ctx.borrow_mut();
            if ctx.ordinal == 0 {
                ctx.ordinal = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
            }
            let parent = ctx.stack.last().map(|f| f.id).unwrap_or(0);
            let (disc, keyed) = match key {
                Some(k) => (k, true),
                None => {
                    let seq = ctx.seq.entry((parent, name)).or_insert(0);
                    let d = *seq;
                    *seq += 1;
                    (d, false)
                }
            };
            let id = span_id(parent, name, disc, keyed);
            ctx.stack.push(Frame { id, adopted: false });
            Span(Some(ActiveSpan {
                id,
                parent,
                name,
                disc,
                start,
                thread: ctx.ordinal,
            }))
        })
    }

    /// The span's deterministic id (`0` for an inert span).
    pub fn id(&self) -> u64 {
        self.0.as_ref().map(|a| a.id).unwrap_or(0)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(active) = self.0.take() else {
            return;
        };
        CTX.with(|ctx| {
            let popped = ctx.borrow_mut().stack.pop();
            debug_assert!(
                popped.is_some_and(|f| f.id == active.id && !f.adopted),
                "unbalanced span nesting"
            );
        });
        let e = epoch();
        let start_ns =
            u64::try_from(active.start.saturating_duration_since(e).as_nanos()).unwrap_or(u64::MAX);
        let dur_ns = u64::try_from(active.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let record = SpanRecord {
            id: active.id,
            parent: active.parent,
            name: active.name,
            disc: active.disc,
            start_ns,
            dur_ns,
            thread: active.thread,
        };
        let mut ring = lock_ring();
        if ring.buf.len() >= ring.cap {
            // The hot path never blocks or grows without bound: overflow
            // drops the newest record and counts it.
            DROPPED.inc();
        } else {
            ring.buf.push_back(record);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All tracing tests share one lock: the switch, ring, and drop
    /// counter are process-wide.
    static TRACE_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        TRACE_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn disabled_spans_are_inert() {
        let _guard = locked();
        set_tracing(false);
        let s = Span::enter("noop");
        assert_eq!(s.id(), 0);
        assert_eq!(current_span(), 0);
        drop(s);
        let mut out = Vec::new();
        drain_spans(&mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn nesting_parents_and_determinism() {
        let _guard = locked();
        set_tracing(true);
        reset_tracing_state();
        let run = || {
            reset_tracing_state();
            let outer = Span::enter("outer");
            let outer_id = outer.id();
            let inner = Span::enter_keyed("inner", 42);
            let inner_id = inner.id();
            drop(inner);
            drop(outer);
            let mut out = Vec::new();
            drain_spans(&mut out);
            (outer_id, inner_id, out)
        };
        let (o1, i1, spans1) = run();
        let (o2, i2, spans2) = run();
        set_tracing(false);
        assert_eq!(o1, o2, "sequence-derived ids must repeat after reset");
        assert_eq!(i1, i2, "keyed ids must repeat");
        assert_eq!(spans1.len(), 2);
        assert_eq!(spans1[0].parent, o1, "inner nests under outer");
        assert_eq!(spans1[1].parent, 0, "outer is a root");
        let strip = |v: &[SpanRecord]| -> Vec<(u64, u64, &str, u64)> {
            v.iter().map(|s| (s.parent, s.id, s.name, s.disc)).collect()
        };
        assert_eq!(strip(&spans1), strip(&spans2));
    }

    #[test]
    fn adopted_parent_crosses_threads() {
        let _guard = locked();
        set_tracing(true);
        reset_tracing_state();
        let outer = Span::enter("fanout");
        let parent = current_span();
        assert_eq!(parent, outer.id());
        std::thread::scope(|s| {
            s.spawn(|| {
                let _adopt = adopt_parent(parent);
                let child = Span::enter_keyed("work", 7);
                assert_ne!(child.id(), 0);
            });
        });
        drop(outer);
        let mut out = Vec::new();
        drain_spans(&mut out);
        set_tracing(false);
        let child = out.iter().find(|s| s.name == "work").expect("child span");
        assert_eq!(child.parent, parent);
    }

    #[test]
    fn ring_overflow_drops_and_counts() {
        let _guard = locked();
        set_tracing(true);
        reset_tracing_state();
        set_ring_capacity(4);
        for i in 0..10 {
            let _s = Span::enter_keyed("burst", i);
        }
        let mut out = Vec::new();
        drain_spans(&mut out);
        let dropped = dropped_spans();
        set_ring_capacity(DEFAULT_RING_CAPACITY);
        reset_tracing_state();
        set_tracing(false);
        assert_eq!(out.len(), 4, "capacity bounds the buffer");
        assert_eq!(dropped, 6, "overflow is counted, not blocked on");
    }

    #[test]
    fn key_str_is_stable() {
        assert_eq!(key_str("database"), key_str("database"));
        assert_ne!(key_str("database"), key_str("websearch"));
    }
}
