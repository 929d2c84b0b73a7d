//! The pool's utilization counters move only while telemetry is on, and
//! then exactly. One `#[test]` only: it toggles the process-wide telemetry
//! switch and reads process-wide counters, so it must not share a binary
//! with other tests.

use mlkit::parallel::{parallel_map_with, pool_stats};

#[test]
fn pool_stats_record_when_enabled() {
    let disabled_before = pool_stats();
    let out = parallel_map_with(3, (0..64).collect(), |i: u64| i + 1);
    assert_eq!(out.len(), 64);
    assert_eq!(
        disabled_before,
        pool_stats(),
        "disabled telemetry must not move pool counters"
    );

    telemetry::set_enabled(true);
    let before = pool_stats();
    // Width 4 needs one helper more than the two width 3 created.
    let _ = parallel_map_with(4, (0..64).collect(), |i: u64| i + 1);
    let _ = parallel_map_with(1, (0..10).collect(), |i: u64| i + 1);
    let after = pool_stats();
    telemetry::set_enabled(false);

    assert_eq!(after.batches, before.batches + 1);
    assert_eq!(after.jobs, before.jobs + 64);
    assert_eq!(after.workers_spawned, before.workers_spawned + 1);
    assert_eq!(after.inline_batches, before.inline_batches + 1);
    assert_eq!(after.inline_jobs, before.inline_jobs + 10);
    assert!(after.worker_wall_ns > before.worker_wall_ns);
    assert!(after.utilization() >= 0.0 && after.utilization() <= 1.0);
}
