//! End-to-end fault-injection tests: the LCU survives the adversarial
//! schedules (suspension, forced migration) that stall a software MCS
//! queue, and driven runs are deterministic under a fixed seed.

use locksim_core::LcuBackend;
use locksim_faults::{csv, FaultDriver, FaultPlan, MatrixCell};
use locksim_machine::{LockBackend, MachineConfig, RunExit, World};
use locksim_swlocks::{SwAlg, SwLockBackend};
use locksim_workloads::{CsThread, IterPool};

const THREADS: usize = 4;
const ITERS: u64 = 120;

/// Builds a small model-A world with `THREADS` threads hammering one lock
/// in write mode.
fn world(backend: Box<dyn LockBackend>, seed: u64) -> World {
    let mut w = World::new(MachineConfig::model_a(4), backend, seed);
    let lock = w.mach().alloc().alloc_line();
    let data = w.mach().alloc().alloc_line();
    let pool = IterPool::new(ITERS);
    for _ in 0..THREADS {
        w.spawn(Box::new(CsThread::new(lock, data, pool.clone(), 100)));
    }
    w
}

/// Suspends thread 1 for 60k cycles once it is queued on the lock.
fn suspend_plan() -> FaultPlan {
    FaultPlan::new()
        .horizon(30_000)
        .deadline(2_000_000)
        .suspend_when_waiting(1, 200, 60_000)
}

#[test]
fn lcu_survives_waiter_suspension() {
    let mut w = world(Box::new(LcuBackend::new()), 7);
    let plan = suspend_plan();
    let out = FaultDriver::new(plan.clone()).run(&mut w);
    assert_eq!(out.exit, RunExit::AllFinished, "LCU run must complete");
    assert!(out.injections_applied() >= 1, "suspension must have fired");
    assert!(
        out.violations.is_empty(),
        "LCU passes grants around a suspended waiter: {:?}",
        out.violations
    );
}

#[test]
fn lcu_survives_forced_migration() {
    let mut w = world(Box::new(LcuBackend::new()), 7);
    // Bounce thread 1 across cores while it is waiting; core 0 is occupied,
    // so each migration also evicts a victim.
    let plan = FaultPlan::new()
        .horizon(30_000)
        .deadline(2_000_000)
        .migrate_when_waiting(1, 200, 3)
        .migrate_at(2_000, 1, 0)
        .migrate_at(4_000, 1, 2);
    let out = FaultDriver::new(plan.clone()).run(&mut w);
    assert_eq!(out.exit, RunExit::AllFinished, "LCU run must complete");
    assert!(out.injections_applied() >= 2);
    assert!(
        out.violations.is_empty(),
        "LCU reissues requests after migration: {:?}",
        out.violations
    );
}

#[test]
fn mcs_stalls_behind_suspended_waiter() {
    let mut w = world(Box::new(SwLockBackend::new(SwAlg::Mcs)), 7);
    // A ring, to see the violations written back as records.
    w.mach().tracer_mut().enable(1 << 20);
    let out = FaultDriver::new(suspend_plan()).run(&mut w);
    let liveness: Vec<_> = out
        .violations
        .iter()
        .filter(|v| v.oracle == "liveness")
        .collect();
    assert!(
        !liveness.is_empty(),
        "MCS successors must stall past the horizon behind a suspended \
         queue node (exit {:?}, end {})",
        out.exit,
        out.end_cycle
    );
    // The suspended thread itself is exempt — the violations must name a
    // runnable successor.
    assert!(
        liveness.iter().any(|v| v.thread != 1),
        "stall must be charged to a runnable successor: {liveness:?}"
    );
    // Violations are visible downstream: trace ring and counters.
    let recorded = w
        .mach()
        .tracer()
        .events()
        .filter(|e| e.kind.name() == "oracle_violation")
        .count();
    assert_eq!(recorded, out.violations.len());
}

#[test]
fn same_seed_runs_are_byte_identical() {
    let run = || {
        let mut w = world(Box::new(LcuBackend::new()), 11);
        let out = FaultDriver::new(suspend_plan()).run(&mut w);
        let cell = MatrixCell::from_run("lcu", "suspend", &out);
        (csv(&[cell]), w.mach().now().cycles(), out)
    };
    let (csv_a, end_a, out_a) = run();
    let (csv_b, end_b, out_b) = run();
    assert_eq!(csv_a, csv_b, "same seed must produce byte-identical CSV");
    assert_eq!(end_a, end_b);
    assert_eq!(out_a, out_b);
}

#[test]
fn scenario_text_round_trip_drives_a_run() {
    let text = "\
# suspend a queued waiter, then bound the run
horizon 30000
deadline 2000000
when-waiting 1 after 200 suspend 1 for 60000
";
    let plan = FaultPlan::parse(text).expect("scenario parses");
    let mut w = world(Box::new(LcuBackend::new()), 7);
    let out = FaultDriver::new(plan).run(&mut w);
    assert_eq!(out.exit, RunExit::AllFinished);
    assert!(out.violations.is_empty());
}
