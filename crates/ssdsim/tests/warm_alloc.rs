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

use ssdsim::config::{presets, SsdConfig};
use ssdsim::Simulator;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let grown = new_size.saturating_sub(layout.size());
        ALLOCATED_BYTES.fetch_add(grown as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn new_warm_up_and_clone_allocate_per_plane_not_per_block() {
    let base = presets::intel_750();
    let cfg = SsdConfig {
        blocks_per_plane: base.blocks_per_plane * 16,
        ..base
    };
    let blocks = cfg.total_planes() * u64::from(cfg.blocks_per_plane);
    let before = ALLOCATED_BYTES.load(Ordering::Relaxed);
    let mut sim = Simulator::new(cfg);
    sim.warm_up(0.5);
    let copy = sim.clone();
    let bytes = ALLOCATED_BYTES.load(Ordering::Relaxed) - before;
    std::hint::black_box((&sim, &copy));
    assert!(
        bytes < 2 << 20,
        "Simulator::new + warm_up + clone of {blocks} blocks allocated {bytes} bytes"
    );
}
