//! End-to-end chaos tests: the quiescence detector turns a wedged run into
//! a structured deadlock verdict (with a blocking chain) instead of a hung
//! or deadline-exhausted process, does not false-positive on healthy
//! congestion or timed suspensions, and the shrinker reduces a fuzzed
//! violation to a tiny plan that still trips the same oracle.

use locksim_core::LcuBackend;
use locksim_faults::fuzz::{generate, FuzzConfig};
use locksim_faults::{shrink, ChaosRow, ChaosWorkload, FaultDriver, FaultPlan, Inject, Trigger};
use locksim_machine::{LockBackend, MachineConfig, RunExit, World};
use locksim_swlocks::{SwAlg, SwLockBackend};
use locksim_workloads::{CsThread, IterPool};

const QUIESCE: u64 = 40_000;

fn build_world(backend: &str, wl: &ChaosWorkload, seed: u64) -> World {
    let b: Box<dyn LockBackend> = match backend {
        "lcu" => Box::new(LcuBackend::new()),
        "mcs" => Box::new(SwLockBackend::new(SwAlg::Mcs)),
        "mrsw" => Box::new(SwLockBackend::new(SwAlg::Mrsw)),
        other => panic!("unsupported backend {other}"),
    };
    let mut w = World::new(MachineConfig::model_a(4), b, seed);
    let lock = w.mach().alloc().alloc_line();
    let data = w.mach().alloc().alloc_line();
    let pool = IterPool::new(u64::from(wl.iters));
    for _ in 0..wl.threads {
        w.spawn(Box::new(
            CsThread::new(lock, data, pool.clone(), wl.write_pct).with_cs_compute(wl.cs_compute),
        ));
    }
    w
}

fn workload(threads: u32, iters: u32, cs_compute: u64) -> ChaosWorkload {
    ChaosWorkload {
        threads,
        iters,
        cs_compute,
        write_pct: 100,
        lrt_pressure: false,
    }
}

/// Runs `plan` on the given case and returns the chaos verdict.
fn verdict(backend: &str, wl: &ChaosWorkload, seed: u64, plan: &FaultPlan) -> String {
    if plan.validate(wl.threads, 4).is_err() {
        return "invalid".to_string();
    }
    let mut w = build_world(backend, wl, seed);
    let out = FaultDriver::new(plan.clone()).run_detected(&mut w, QUIESCE);
    ChaosRow::verdict_of(&out).to_string()
}

/// Two MCS threads; suspend the holder indefinitely mid-critical-section.
/// The waiter can never proceed and nothing in the plan can unwedge it.
fn wedge_plan() -> FaultPlan {
    FaultPlan::new().horizon(60_000).deadline(2_000_000).event(
        Trigger::WhenHolding {
            thread: 0,
            after: 200,
        },
        Inject::Suspend {
            thread: 0,
            duration: None,
        },
    )
}

#[test]
fn wedged_holder_yields_structured_deadlock_verdict() {
    let wl = workload(2, 40, 200);
    let mut w = build_world("mcs", &wl, 5);
    // A ring, to see the deadlock written back as a record.
    w.mach().tracer_mut().enable(1 << 20);
    let plan = wedge_plan();
    let out = FaultDriver::new(plan.clone()).run_detected(&mut w, QUIESCE);

    let report = out.deadlock.as_ref().expect("detector must fire");
    assert!(report.waiters >= 1, "report: {report:?}");
    assert!(!report.chain.is_empty(), "blocking chain must be dumped");
    assert!(
        report.chain.contains("suspended"),
        "chain must show the suspended holder: {}",
        report.chain
    );
    assert!(
        out.end_cycle < plan.deadline,
        "detector must cut the run short of the deadline (ended {})",
        out.end_cycle
    );

    // The structured verdict outranks the liveness fallout it implies.
    assert_eq!(ChaosRow::verdict_of(&out), "DEADLOCK");

    // Downstream visibility: trace record and metrics counter.
    assert_eq!(
        w.mach()
            .tracer()
            .events()
            .filter(|e| e.kind.name() == "deadlock")
            .count(),
        1
    );
    assert_eq!(
        w.mach_ref().metrics().counters().get("deadlocks_detected"),
        1
    );
}

#[test]
fn wedged_runs_are_byte_deterministic() {
    let run = || {
        let wl = workload(2, 40, 200);
        let mut w = build_world("mcs", &wl, 5);
        let out = FaultDriver::new(wedge_plan()).run_detected(&mut w, QUIESCE);
        assert!(out.deadlock.is_some(), "detector must fire");
        out
    };
    assert_eq!(run(), run());
}

#[test]
fn healthy_congested_run_is_not_flagged() {
    // Four LCU threads hammering one lock with long critical sections:
    // heavily contended, but grants keep flowing — the detector must stay
    // silent and the run must finish.
    let wl = workload(4, 160, 800);
    let mut w = build_world("lcu", &wl, 7);
    let plan = FaultPlan::new().horizon(30_000).deadline(6_000_000);
    let out = FaultDriver::new(plan.clone()).run_detected(&mut w, QUIESCE);
    assert!(out.deadlock.is_none(), "false positive: {:?}", out.deadlock);
    assert_eq!(out.exit, RunExit::AllFinished);
}

#[test]
fn timed_suspension_is_not_mistaken_for_deadlock() {
    // An MCS waiter suspended for 120k cycles freezes lock progress far
    // longer than the quiescence window; only the pending auto-resume
    // tells the detector this wedge will clear itself. The run must end in
    // a liveness verdict (successors stalled past the horizon), not a
    // deadlock one.
    let wl = workload(4, 120, 0);
    let mut w = build_world("mcs", &wl, 7);
    let plan = FaultPlan::new()
        .horizon(30_000)
        .deadline(6_000_000)
        .suspend_when_waiting(1, 200, 120_000);
    let out = FaultDriver::new(plan).run_detected(&mut w, QUIESCE);
    assert!(
        out.deadlock.is_none(),
        "auto-resume pending — not a deadlock: {:?}",
        out.deadlock
    );
    assert_eq!(ChaosRow::verdict_of(&out), "LIVENESS");
}

#[test]
fn shrinker_reduces_fuzzed_violation_to_at_most_four_events() {
    // Deterministic search: the first violating fuzz seed is the same on
    // every run, so this pins a concrete seeded case without hardcoding
    // generator internals.
    let cfg = FuzzConfig {
        backends: vec!["lcu", "mcs", "mrsw"],
        iters: (40, 100),
        deadline: 400_000,
        ..FuzzConfig::default()
    };
    let mut found = None;
    for seed in 0..64 {
        let case = generate(seed, &cfg);
        let v = verdict(case.backend, &case.workload, seed, &case.plan);
        if v != "pass" {
            found = Some((case, v));
            break;
        }
    }
    let (case, original) = found.expect("some fuzz seed in 0..64 must violate");
    let events_before = case.plan.events.len();
    let wl = case.workload;
    let backend = case.backend;
    let seed = case.seed;

    let result = shrink(
        &case.plan,
        |p| verdict(backend, &wl, seed, p) == original,
        120,
    );
    assert!(
        result.plan.events.len() <= 4,
        "shrunk {} -> {} events (verdict {original}): {:?}",
        events_before,
        result.plan.events.len(),
        result.plan.events
    );
    // The minimal plan still trips the same oracle, deterministically.
    assert_eq!(verdict(backend, &wl, seed, &result.plan), original);
    assert_eq!(verdict(backend, &wl, seed, &result.plan), original);
}
