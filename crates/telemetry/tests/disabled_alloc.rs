//! Proves the disabled-tracing path is allocation-free.
//!
//! A counting global allocator wraps the system allocator; with tracing
//! off, entering and dropping spans (and probing the ambient parent) must
//! not allocate at all — the whole point of the relaxed-load early-out.
//!
//! Allocations are counted per thread: the test harness runs this file's
//! tests on parallel threads (and allocates on its own), so a process-wide
//! counter would charge one test with another's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator cannot itself allocate.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with`: the allocator may run while a thread is being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn counter_sees_its_own_threads_allocations() {
    let before = allocations();
    std::hint::black_box(Box::new(0u64));
    assert_eq!(allocations() - before, 1);
}

#[test]
fn disabled_tracing_does_not_allocate() {
    telemetry::span::set_tracing(false);
    // Warm anything lazily initialised outside the measured window.
    {
        let _s = telemetry::span::Span::enter("warmup");
        let _g = telemetry::span::adopt_parent(telemetry::span::current_span());
    }
    let before = allocations();
    for i in 0..10_000u64 {
        let s = telemetry::span::Span::enter("hot");
        let k = telemetry::span::Span::enter_keyed("hot_keyed", i);
        let g = telemetry::span::adopt_parent(telemetry::span::current_span());
        std::hint::black_box((s.id(), k.id()));
        drop(g);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "disabled span path must not allocate (got {} allocations over 10k iterations)",
        after - before
    );
}

#[test]
fn disabled_stopwatch_does_not_allocate() {
    telemetry::set_enabled(false);
    let before = allocations();
    for _ in 0..10_000 {
        let t = telemetry::start();
        std::hint::black_box(telemetry::elapsed_ns(t));
    }
    let after = allocations();
    assert_eq!(after - before, 0, "disabled stopwatch must not allocate");
}
