//! A counting global allocator for the allocation-bound tests.
//!
//! Each test binary that declares `mod common;` installs it. It counts
//! every thread, and the test harness allocates on threads of its own, so
//! such a binary holds one test.

use ssdsim::config::{presets, SsdConfig};
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

/// Bytes requested from the allocator so far (growth only; frees are not
/// subtracted).
pub fn allocated_bytes() -> u64 {
    ALLOCATED_BYTES.load(Ordering::Relaxed)
}

/// The widest geometry coarse pruning sweeps: an Intel 750 with 16× the
/// blocks per plane (3.9 M blocks).
pub fn wide_intel_750() -> SsdConfig {
    let base = presets::intel_750();
    SsdConfig {
        blocks_per_plane: base.blocks_per_plane * 16,
        ..base
    }
}
