//! The event loop allocates nothing per critical section in steady state:
//! a run four times as long makes at most a small constant number of extra
//! allocations, on every backend of the harness table.
//!
//! This file holds one test on purpose. The counting allocator's counters
//! are process-global, so a second test running on another thread would
//! add its allocations to this one's run phase.

use locksim::harness::BackendKind;
use locksim::machine::{MachineConfig, World};
use locksim::trace::alloc::{self, CountingAlloc};
use locksim::workloads::{CsThread, IterPool};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Extra allocations the longer run may make: a few map and vector
/// capacity doublings, and sketch buckets for latencies first seen late.
const SLACK: u64 = 64;

/// Allocations inside the run loop of 8 threads sharing one lock for
/// `critical_sections` critical sections on an 8-core Model A machine.
fn run_allocs(backend: BackendKind, critical_sections: u64) -> u64 {
    let cfg = backend.machine_config(MachineConfig::model_a(8));
    let mut w = World::new(cfg, backend.build(), 1);
    let lock = w.mach().alloc().alloc_line();
    let data = w.mach().alloc().alloc_line();
    let pool = IterPool::new(critical_sections);
    let write_pct = if backend.reads() { 50 } else { 100 };
    for _ in 0..8 {
        w.spawn(Box::new(CsThread::new(lock, data, pool.clone(), write_pct)));
    }
    alloc::take_run_phase();
    w.run_to_completion();
    alloc::take_run_phase()
        .expect("run_for brackets the event loop")
        .allocs
}

#[test]
fn run_loop_allocations_stay_flat_as_runs_grow() {
    alloc::mark_installed();
    for backend in BackendKind::ALL {
        let short = run_allocs(backend, 400);
        let long = run_allocs(backend, 1_600);
        assert!(
            long <= short + SLACK,
            "{}: 1600 critical sections made {long} run-loop allocations, \
             400 made {short} (allowed growth {SLACK})",
            backend.label()
        );
    }
}
