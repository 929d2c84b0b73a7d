//! A minimal persistent worker pool for deterministic data-parallel fan-out.
//!
//! One process-wide pool of helper threads, spawned lazily, serves every
//! [`parallel_map`] call. Between batches a helper spins for 50 µs and
//! then parks on a condition variable.
//! The calling thread claims items too, so a batch at `T` threads uses
//! `T - 1` helpers. Jobs may borrow from the caller's stack (validators,
//! parameter spaces, matrices) without `'static` bounds: a batch does not
//! return, or unwind, before every helper that joined it has finished.
//! Work items are claimed from an atomic counter and results are written
//! back by index, so the output order — and therefore every downstream
//! computation — is identical to a sequential run regardless of the thread
//! count or OS scheduling.
//!
//! The pool serves one batch at a time. A call made while a batch holds it
//! — from inside one of that batch's jobs, or from another thread — runs
//! inline on its own thread instead of waiting, so a job can never block on
//! a pool its own caller holds.
//!
//! The pool size comes from, in priority order: a process-wide programmatic
//! override ([`set_max_threads`]), the `AUTOBLOX_THREADS` environment
//! variable, then [`std::thread::available_parallelism`]. A limit of `1`
//! runs the caller's closure inline with no threads spawned at all, which
//! makes the sequential baseline trivially exact.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, MutexGuard, PoisonError};
use std::time::{Duration, Instant};
use telemetry::Counter;

/// Process-wide thread-count override; `0` means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

// Pool utilization telemetry. Every counter is recorded only while
// `telemetry::enabled()` is on, so the default (disabled) fan-out path
// performs exactly one relaxed atomic load per batch and nothing else.
static POOL_BATCHES: Counter = Counter::new();
static POOL_INLINE_BATCHES: Counter = Counter::new();
static POOL_JOBS: Counter = Counter::new();
static POOL_INLINE_JOBS: Counter = Counter::new();
static POOL_WORKERS_SPAWNED: Counter = Counter::new();
static POOL_BUSY_NS: Counter = Counter::new();
static POOL_WALL_NS: Counter = Counter::new();
static POOL_WORKER_WALL_NS: Counter = Counter::new();

/// Snapshot of the worker pool's utilization counters.
///
/// Collected process-wide across every [`parallel_map`] /
/// [`parallel_map_with`] call while telemetry is enabled (see the
/// `telemetry` crate); all zeros otherwise.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PoolStats {
    /// Batches the pool served (the caller plus at least one helper).
    pub batches: u64,
    /// Batches that ran inline on the calling thread: 1 thread, 1 item, or
    /// the pool already held (a nested or concurrent call).
    pub inline_batches: u64,
    /// Work items processed by pool batches.
    pub jobs: u64,
    /// Work items processed inline.
    pub inline_jobs: u64,
    /// Helper threads created. The pool keeps its helpers, so this stops
    /// growing once the widest batch has run.
    pub workers_spawned: u64,
    /// Summed busy time of every thread that worked a pool batch, ns.
    pub busy_ns: u64,
    /// Summed wall-clock time of the pool batches, ns.
    pub wall_ns: u64,
    /// Summed `threads x batch wall-clock` capacity, ns (the utilization
    /// denominator).
    pub worker_wall_ns: u64,
}

impl PoolStats {
    /// Fraction of the pool threads' available time spent busy, in
    /// `0.0..=1.0`; `0.0` before any instrumented batch ran.
    pub fn utilization(&self) -> f64 {
        if self.worker_wall_ns == 0 {
            0.0
        } else {
            (self.busy_ns as f64 / self.worker_wall_ns as f64).min(1.0)
        }
    }
}

/// Snapshot of the process-wide pool utilization counters.
pub fn pool_stats() -> PoolStats {
    PoolStats {
        batches: POOL_BATCHES.get(),
        inline_batches: POOL_INLINE_BATCHES.get(),
        jobs: POOL_JOBS.get(),
        inline_jobs: POOL_INLINE_JOBS.get(),
        workers_spawned: POOL_WORKERS_SPAWNED.get(),
        busy_ns: POOL_BUSY_NS.get(),
        wall_ns: POOL_WALL_NS.get(),
        worker_wall_ns: POOL_WORKER_WALL_NS.get(),
    }
}

/// Resets the process-wide pool utilization counters to zero (used at the
/// start of an instrumented run so the report covers exactly that run).
pub fn reset_pool_stats() {
    for c in [
        &POOL_BATCHES,
        &POOL_INLINE_BATCHES,
        &POOL_JOBS,
        &POOL_INLINE_JOBS,
        &POOL_WORKERS_SPAWNED,
        &POOL_BUSY_NS,
        &POOL_WALL_NS,
        &POOL_WORKER_WALL_NS,
    ] {
        c.reset();
    }
}

/// Environment variable consulted for the default worker count.
pub const THREADS_ENV: &str = "AUTOBLOX_THREADS";

/// The worker-pool size parallel helpers use when none is given explicitly.
///
/// Resolution order: [`set_max_threads`] override, then the
/// `AUTOBLOX_THREADS` environment variable, then the machine's available
/// parallelism. Always at least 1.
pub fn max_threads() -> usize {
    let o = THREAD_OVERRIDE.load(Ordering::Relaxed);
    if o != 0 {
        return o;
    }
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Overrides the pool size process-wide (`0` clears the override, restoring
/// the environment/hardware default). Intended for benchmarks and tests that
/// compare thread counts within one process.
pub fn set_max_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::Relaxed);
}

/// Maps `f` over `items` on the default pool ([`max_threads`]), preserving
/// input order in the output.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    parallel_map_with(max_threads(), items, f)
}

/// Maps `f` over `items` with at most `threads` threads (the caller and
/// `threads - 1` pool helpers), preserving input order in the output.
/// `threads <= 1`, a single item, or a pool already held by another batch
/// runs inline on the calling thread.
///
/// # Panics
///
/// Panics if `f` panicked on any item, with that panic's payload, once
/// every helper working the batch has finished. The pool keeps serving.
pub fn parallel_map_with<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    POOL.map(threads, items, f)
}

/// The process-wide pool every [`parallel_map`] call shares.
static POOL: Pool = Pool::new();

/// How long a pool thread spins before it sleeps: a helper that finished a
/// batch, waiting for the next, and a caller whose items are done, waiting
/// for its helpers. A sleeping thread's CPU halts, and the wake-up that
/// follows is the slow and erratic part of a batch on a virtual machine: on
/// a 2-vCPU guest a two-item batch of 60 µs of work took 46 µs median when
/// both sides slept (15 µs of it waking) and 32 µs when both spun, with a
/// narrower spread from run to run. The SGD walk sends its steps a few
/// microseconds apart, so a spinning helper catches every step of a walk
/// and sleeps only between search iterations.
const SPIN: Duration = Duration::from_micros(50);

/// Spins until `ready` holds or [`SPIN`] has passed; returns whether it
/// holds. It yields the CPU every 32 probes, so on a host with more pool
/// threads than CPUs a spinner hands its CPU to the thread it waits for:
/// four threads on two CPUs ran 60 µs batches in 22 µs median this way, 33
/// µs when spinning without yielding and 40 µs when sleeping at once.
fn spin_until(ready: impl Fn() -> bool) -> bool {
    let start = Instant::now();
    loop {
        for _ in 0..32 {
            if ready() {
                return true;
            }
            std::hint::spin_loop();
        }
        std::thread::yield_now();
        if start.elapsed() >= SPIN {
            return false;
        }
    }
}

/// A set of parked helper threads plus the one batch they may be serving.
struct Pool {
    /// Set while a batch holds the pool. Taken with `Acquire` and released
    /// with `Release`, so a batch sees everything the previous one did.
    held: AtomicBool,
    state: std::sync::Mutex<State>,
    /// Helpers park here between batches.
    wake: Condvar,
    /// A batch's caller waits here for the helpers that joined it.
    done: Condvar,
    /// Batches offered so far, bumped under the state lock; a helper
    /// spinning between batches watches it.
    offers: AtomicUsize,
    /// Helpers that joined the current batch and have not finished,
    /// changed only under the state lock; a caller spinning at the end of
    /// its batch watches it.
    unfinished: AtomicUsize,
}

struct State {
    /// The current batch's helper entry point, its borrow's lifetime
    /// erased (see [`Pool::run`] for why it never outlives the batch);
    /// `None` between batches.
    job: Option<&'static (dyn Fn() + Sync)>,
    /// Helpers that may still join the current batch.
    tickets: usize,
    /// Helper threads created so far.
    helpers: usize,
}

/// Clears [`Pool::held`] when a batch ends, unwinding included.
struct Release<'a>(&'a AtomicBool);

impl Drop for Release<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::Release);
    }
}

/// Revokes the tickets no helper took and waits for the helpers that did;
/// runs on drop so that not even an unwinding caller leaves a batch early.
struct Join<'a>(&'a Pool);

impl Drop for Join<'_> {
    fn drop(&mut self) {
        let pool = self.0;
        let mut st = pool.lock();
        st.tickets = 0;
        if pool.unfinished.load(Ordering::Relaxed) > 0 {
            drop(st);
            spin_until(|| pool.unfinished.load(Ordering::Relaxed) == 0);
            st = pool.lock();
        }
        while pool.unfinished.load(Ordering::Relaxed) > 0 {
            st = pool.done.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        st.job = None;
    }
}

impl Pool {
    const fn new() -> Self {
        Pool {
            held: AtomicBool::new(false),
            state: std::sync::Mutex::new(State {
                job: None,
                tickets: 0,
                helpers: 0,
            }),
            wake: Condvar::new(),
            done: Condvar::new(),
            offers: AtomicUsize::new(0),
            unfinished: AtomicUsize::new(0),
        }
    }

    // No code runs user jobs under this lock, so it cannot be poisoned by
    // one; recover the guard regardless.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn map<T, R, F>(&'static self, threads: usize, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let n = items.len();
        let threads = threads.min(n);
        let instrument = telemetry::enabled();
        if threads <= 1 || self.held.swap(true, Ordering::Acquire) {
            if instrument {
                POOL_INLINE_BATCHES.inc();
                POOL_INLINE_JOBS.add(n as u64);
            }
            return items.into_iter().map(f).collect();
        }
        let _release = Release(&self.held);
        let helpers = self.spawn_helpers(threads - 1, instrument);
        if instrument {
            POOL_BATCHES.inc();
            POOL_JOBS.add(n as u64);
        }
        let batch_start = telemetry::start();
        // Helpers adopt the caller's current span as their ambient parent,
        // so spans opened inside `f` nest identically to an inline run.
        let fanout_span = telemetry::span::current_span();
        // Each slot is locked only for the instant of its take/store; the
        // atomic counter hands out indices so a slow item never blocks the
        // others.
        let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let panicked: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
        // A thread claims indices until the list is exhausted, so its time
        // in here IS its busy time. The first panic's payload is kept for
        // the caller; the other threads drain the remaining items.
        let work = || {
            let busy = telemetry::start();
            let claimed = catch_unwind(AssertUnwindSafe(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = slots[i].lock().take().expect("each index claimed once");
                let r = f(item);
                *results[i].lock() = Some(r);
            }));
            if let Err(payload) = claimed {
                panicked.lock().get_or_insert(payload);
            }
            POOL_BUSY_NS.add(telemetry::elapsed_ns(busy));
        };
        // A helper enters each batch as a fresh scoped thread would: no
        // span sequence numbers left over from earlier batches.
        let helper = || {
            telemetry::span::clear_thread_sequences();
            let _parent = telemetry::span::adopt_parent(fanout_span);
            work();
        };
        self.run(helpers, &helper, work);
        let wall = telemetry::elapsed_ns(batch_start);
        if instrument {
            POOL_WALL_NS.add(wall);
            POOL_WORKER_WALL_NS.add(wall * (helpers as u64 + 1));
        }
        if let Some(payload) = panicked.into_inner() {
            resume_unwind(payload);
        }
        results
            .into_iter()
            .map(|m| m.into_inner().expect("every index was claimed"))
            .collect()
    }

    /// Creates helpers until `want` exist (or the OS refuses one) and
    /// returns how many this batch may use.
    fn spawn_helpers(&'static self, want: usize, instrument: bool) -> usize {
        let mut st = self.lock();
        while st.helpers < want {
            let spawned = std::thread::Builder::new()
                .name(format!("mlkit-pool-{}", st.helpers + 1))
                .spawn(move || self.serve());
            if spawned.is_err() {
                break;
            }
            st.helpers += 1;
            if instrument {
                POOL_WORKERS_SPAWNED.inc();
            }
        }
        st.helpers.min(want)
    }

    /// Offers `helper` to `helpers` parked helpers, runs `own` on the
    /// calling thread, and returns once every helper that took the offer
    /// has finished.
    fn run(&self, helpers: usize, helper: &(dyn Fn() + Sync), own: impl FnOnce()) {
        // SAFETY: the erased reference is stored in `State::job` only until
        // `Join` drops, and a helper calls it only after taking a ticket
        // under the state lock, which also counts it in `unfinished`. `Join`
        // revokes the untaken tickets, waits until `unfinished` is zero and
        // clears `job` before this function returns or unwinds, so no helper
        // touches `helper` — or anything it borrows — after the borrow ends.
        let job = unsafe {
            std::mem::transmute::<&(dyn Fn() + Sync), &'static (dyn Fn() + Sync)>(helper)
        };
        {
            let mut st = self.lock();
            st.job = Some(job);
            st.tickets = helpers;
            self.offers.fetch_add(1, Ordering::Relaxed);
        }
        let _join = Join(self);
        self.wake.notify_all();
        own();
    }

    /// A helper's life: spin, then park, until a batch is offered; take a
    /// ticket, work the batch, report back. Helpers are never joined: they
    /// live as long as the process, and a batch's job catches its items'
    /// panics, so a helper never unwinds.
    fn serve(&self) {
        let mut st = self.lock();
        loop {
            if st.tickets == 0 {
                let seen = self.offers.load(Ordering::Relaxed);
                drop(st);
                let offered = spin_until(|| self.offers.load(Ordering::Relaxed) != seen);
                st = self.lock();
                if !offered && st.tickets == 0 {
                    st = self.wake.wait(st).unwrap_or_else(PoisonError::into_inner);
                }
                continue;
            }
            st.tickets -= 1;
            self.unfinished.fetch_add(1, Ordering::Relaxed);
            let job = st.job.expect("a ticket comes with a job");
            drop(st);
            job();
            st = self.lock();
            if self.unfinished.fetch_sub(1, Ordering::Relaxed) == 1 {
                self.done.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let out = parallel_map_with(4, (0..100).collect(), |i| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_path_matches() {
        let items: Vec<u64> = (0..37).collect();
        let seq = parallel_map_with(1, items.clone(), |i| i.wrapping_mul(0x9E37_79B9));
        let par = parallel_map_with(8, items, |i| i.wrapping_mul(0x9E37_79B9));
        assert_eq!(seq, par);
    }

    #[test]
    fn empty_input() {
        let out: Vec<i32> = parallel_map_with(4, Vec::<i32>::new(), |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn borrows_environment() {
        let data = [1.0, 2.0, 3.0];
        let out = parallel_map_with(2, vec![0usize, 1, 2], |i| data[i] * 10.0);
        assert_eq!(out, vec![10.0, 20.0, 30.0]);
    }

    #[test]
    fn override_round_trip() {
        set_max_threads(3);
        assert_eq!(max_threads(), 3);
        set_max_threads(0);
        assert!(max_threads() >= 1);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panic_propagates() {
        let _ = parallel_map_with(2, vec![0, 1, 2, 3], |i| {
            if i == 2 {
                panic!("boom");
            }
            i
        });
    }

    /// A pool of its own, so no concurrently running test can hold it.
    fn own_pool() -> &'static Pool {
        Box::leak(Box::new(Pool::new()))
    }

    /// Maps a two-item batch whose items wait for each other, so the
    /// caller and the helper each take one; returns the helper's id.
    fn helper_id(pool: &'static Pool) -> std::thread::ThreadId {
        let meet = std::sync::Barrier::new(2);
        let ids = pool.map(2, vec![0, 1], |_| {
            meet.wait();
            std::thread::current().id()
        });
        let me = std::thread::current().id();
        *ids.iter()
            .find(|&&id| id != me)
            .expect("a helper took an item")
    }

    #[test]
    fn job_panic_propagates_and_the_pool_keeps_serving() {
        let pool = own_pool();
        let helper = helper_id(pool);
        let meet = std::sync::Barrier::new(2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.map(2, vec![0, 1], |i| {
                meet.wait();
                if i == 1 {
                    panic!("boom");
                }
                i
            })
        }));
        let payload = caught.expect_err("the job's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
        assert_eq!(helper_id(pool), helper, "the same helper serves on");
        assert_eq!(pool.lock().helpers, 1);
        let out = pool.map(2, (0..50).collect(), |i: u32| i + 1);
        assert_eq!(out, (1..51).collect::<Vec<_>>());
    }

    /// The two slow paths of a batch: a helper that slept past its spin
    /// still takes the next batch, and a caller whose helper outlasts the
    /// caller's spin sleeps until the helper is done.
    #[test]
    fn sleepers_on_both_sides_still_meet() {
        let pool = own_pool();
        let helper = helper_id(pool);
        std::thread::sleep(SPIN * 100);
        assert_eq!(helper_id(pool), helper, "the parked helper served");
        let caller = std::thread::current().id();
        let meet = std::sync::Barrier::new(2);
        let out = pool.map(2, vec![0, 1], |i: u32| {
            meet.wait();
            if std::thread::current().id() != caller {
                std::thread::sleep(SPIN * 100);
            }
            i + 1
        });
        assert_eq!(out, vec![1, 2]);
        assert_eq!(pool.unfinished.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn nested_call_runs_inline_in_order() {
        let pool = own_pool();
        let out = pool.map(2, (0..4).collect(), |i: u32| {
            let me = std::thread::current().id();
            let inner = pool.map(4, (0..8).collect(), |j: u32| {
                (i * 8 + j, std::thread::current().id())
            });
            assert!(
                inner.iter().all(|&(_, id)| id == me),
                "nested items left the job's thread"
            );
            inner.into_iter().map(|(v, _)| v).collect::<Vec<_>>()
        });
        assert_eq!(out.concat(), (0..32).collect::<Vec<_>>());
        assert_eq!(pool.lock().helpers, 1, "a nested call spawns no helper");
    }

    /// One caller holds the pool until the other finished a whole batch: if
    /// the second caller waited for the pool, the first would time out.
    #[test]
    fn concurrent_callers_run_without_waiting() {
        let pool = own_pool();
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let started_tx = Mutex::new(started_tx);
        let done_rx = Mutex::new(done_rx);
        std::thread::scope(|s| {
            let holder = s.spawn(|| {
                pool.map(2, (0..2).collect(), |i: u64| {
                    if i == 0 {
                        started_tx.lock().send(()).unwrap();
                        let other = done_rx
                            .lock()
                            .recv_timeout(std::time::Duration::from_secs(60));
                        assert!(other.is_ok(), "the second caller waited for the pool");
                    }
                    i * 2
                })
            });
            started_rx.recv().unwrap();
            let out = pool.map(2, (0..64).collect(), |i: u64| i * 3);
            done_tx.send(()).unwrap();
            assert_eq!(out, (0..64).map(|i| i * 3).collect::<Vec<_>>());
            assert_eq!(holder.join().unwrap(), vec![0, 2]);
        });
    }
}
