//! The pool keeps its helpers: widening with `set_max_threads` spawns the
//! missing ones, narrowing uses some of them, and a warm pool serves any
//! number of batches without creating a thread. One `#[test]` only: it sets
//! the process-wide width and reads process-wide counters, so it must not
//! share a binary with other tests.

use mlkit::parallel::{parallel_map, pool_stats, set_max_threads};

/// Threads of this process, where the OS lists them.
fn os_threads() -> Option<usize> {
    std::fs::read_dir("/proc/self/task").ok().map(|d| d.count())
}

fn squares(n: u64) {
    let out = parallel_map((0..n).collect(), |i: u64| i * i);
    assert_eq!(out, (0..n).map(|i| i * i).collect::<Vec<_>>());
}

#[test]
fn warm_pool_creates_no_thread_across_width_changes() {
    // The pool counters stay zero while telemetry is disabled.
    telemetry::set_enabled(true);
    set_max_threads(1);
    squares(32);
    assert_eq!(pool_stats().workers_spawned, 0, "one thread is inline");
    set_max_threads(4);
    squares(32);
    assert_eq!(pool_stats().workers_spawned, 3, "width 4 = caller + 3");
    set_max_threads(2);
    squares(32);
    assert_eq!(pool_stats().workers_spawned, 3, "narrowing spawns none");

    let warm = os_threads();
    let batches = pool_stats().batches;
    for i in 0..1_000 {
        set_max_threads(if i % 2 == 0 { 2 } else { 4 });
        squares(8);
    }
    let stats = pool_stats();
    set_max_threads(0);
    telemetry::set_enabled(false);

    assert_eq!(stats.batches, batches + 1_000, "every batch used the pool");
    assert_eq!(stats.workers_spawned, 3, "a warm pool created a thread");
    assert_eq!(os_threads(), warm, "the process gained or lost threads");
}
