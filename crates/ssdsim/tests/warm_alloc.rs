//! Building, warming and cloning a device must not pay for its blocks.
//!
//! Every validation builds a simulator, warms it and clones it for the
//! saturated replay. The warm state is a function of the layout, so none of
//! the three may allocate per block: a counting global allocator sums the
//! bytes they request on the widest geometry coarse pruning sweeps (an
//! Intel 750 with 16× the blocks per plane, 3.9 M blocks; storing every
//! block costs ≈ 24 MB per copy).
//!
//! One test per binary: the global allocator counts every thread, and the
//! test harness allocates on threads of its own.

mod common;

use common::{allocated_bytes, wide_intel_750};
use ssdsim::Simulator;

#[test]
fn new_warm_up_and_clone_allocate_per_plane_not_per_block() {
    let cfg = wide_intel_750();
    let blocks = cfg.total_planes() * u64::from(cfg.blocks_per_plane);
    let before = allocated_bytes();
    let mut sim = Simulator::new(cfg);
    sim.warm_up(0.5);
    let copy = sim.clone();
    let bytes = allocated_bytes() - before;
    std::hint::black_box((&sim, &copy));
    assert!(
        bytes < 2 << 20,
        "Simulator::new + warm_up + clone of {blocks} blocks allocated {bytes} bytes"
    );
}
