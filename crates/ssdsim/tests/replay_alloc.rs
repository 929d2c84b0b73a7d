//! A replay must pay for the logical pages it writes, not for the address
//! space they lie in.
//!
//! The mapping table stores an entry for every page a replay programs. On
//! the widest geometry coarse pruning sweeps (an Intel 750 with 16× the
//! blocks per plane, 1.87 G logical pages), a counting global allocator
//! sums what a warmed device requests to replay and drain
//!
//! - one 8 KiB write at the last logical page, whose mapping entries lie
//!   at the two ends of the address space (the write wraps to page 0);
//! - a 500-event Database trace, the validator's unit of work.
//!
//! A table sized by the highest page written cost 7.35 MB for the first and
//! 1.80 MB for the second.
//!
//! One test per binary: the global allocator counts every thread, and the
//! test harness allocates on threads of its own.

mod common;

use common::{allocated_bytes, wide_intel_750};
use iotrace::gen::WorkloadKind;
use iotrace::{OpKind, Trace, TraceEvent};
use ssdsim::Simulator;

/// Bytes `sim` allocates to replay `trace` and drain.
fn replay_bytes(mut sim: Simulator, trace: &Trace) -> u64 {
    let before = allocated_bytes();
    let report = sim.run(trace);
    sim.drain(report.makespan_ns);
    let bytes = allocated_bytes() - before;
    std::hint::black_box(&sim);
    bytes
}

#[test]
fn a_replay_allocates_for_the_pages_it_writes() {
    let cfg = wide_intel_750();
    let last_lpn = cfg.logical_pages() - 1;
    let sector = last_lpn * u64::from(cfg.page_size_bytes) / 512;
    let mut sim = Simulator::new(cfg);
    sim.warm_up(0.5);

    let write = Trace::from_events(
        "edge",
        vec![TraceEvent::new(0, sector, 8192, OpKind::Write)],
    );
    let bytes = replay_bytes(sim.clone(), &write);
    assert!(
        bytes < 64 << 10,
        "one 8 KiB write at logical page {last_lpn} allocated {bytes} bytes"
    );

    let database = WorkloadKind::Database.spec().generate(500, 7);
    let bytes = replay_bytes(sim, &database);
    assert!(
        bytes < 1 << 20,
        "a 500-event Database replay allocated {bytes} bytes"
    );
}
