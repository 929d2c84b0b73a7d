//! A surrogate fit never touches the worker pool. One `#[test]` only: it
//! sets the process-wide pool width and reads process-wide pool counters, so
//! it must not share a binary with other tests.

use mlkit::gpr::GprBuilder;
use mlkit::linalg::Matrix;
use mlkit::parallel::{pool_stats, set_max_threads};

#[test]
fn gpr_fit_runs_no_pool_batch() {
    // The pool counters stay zero while telemetry is disabled.
    telemetry::set_enabled(true);
    set_max_threads(4);
    let n = 64;
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| vec![i as f64 * 0.37, (i as f64 * 0.11).sin()])
        .collect();
    let y: Vec<f64> = rows.iter().map(|r| r[0].cos() + r[1]).collect();
    let x = Matrix::from_rows(&rows);

    let before = pool_stats();
    GprBuilder::new()
        .optimize_rounds(1)
        .fit(&x, &y)
        .expect("a 64-point fit with the default kernel succeeds");
    let after = pool_stats();

    assert_eq!(after.batches, before.batches, "fit spawned a pool batch");
    assert_eq!(
        after.inline_batches, before.inline_batches,
        "fit went through the pool's inline path"
    );
}
