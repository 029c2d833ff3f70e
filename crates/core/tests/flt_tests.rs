//! Tests of the Free Lock Table extension (paper §IV-C future work):
//! parked releases make same-thread re-acquisition local while staying
//! correct when other requestors appear.

use locksim_core::LcuBackend;
use locksim_machine::testing::ScriptProgram;
use locksim_machine::{Action, MachineConfig, Mode, World};

fn flt_world(flt_entries: usize, chips: usize, seed: u64) -> World {
    let mut cfg = MachineConfig::model_a(chips);
    cfg.flt_entries = flt_entries;
    World::new(cfg, Box::new(LcuBackend::new()), seed)
}

#[test]
fn private_reacquire_is_local_with_flt() {
    // 50 acquire/release pairs of a private lock.
    let run = |flt: usize| {
        let mut w = flt_world(flt, 4, 1);
        let lock = w.mach().alloc().alloc_line();
        let mut script = Vec::new();
        for _ in 0..50 {
            script.push(Action::Acquire {
                lock,
                mode: Mode::Write,
                try_for: None,
            });
            script.push(Action::Compute(40));
            script.push(Action::Release {
                lock,
                mode: Mode::Write,
            });
        }
        w.spawn(Box::new(ScriptProgram::new(script)));
        w.run_to_completion();
        (w.mach().now().cycles(), w.report_counters())
    };
    let (t_off, _) = run(0);
    let (t_on, c_on) = run(4);
    assert_eq!(
        c_on.get("flt_hits"),
        49,
        "every re-acquire should hit the FLT"
    );
    assert!(
        (t_on as f64) < (t_off as f64) * 0.35,
        "FLT should slash private-lock cost: {t_on} vs {t_off}"
    );
}

#[test]
fn parked_lock_transfers_when_requested() {
    // t0 parks the lock; t1 then requests it and must get it (the forwarded
    // request unparks the deferred release).
    let mut w = flt_world(4, 4, 2);
    let lock = w.mach().alloc().alloc_line();
    w.spawn(Box::new(ScriptProgram::new(vec![
        Action::Acquire {
            lock,
            mode: Mode::Write,
            try_for: None,
        },
        Action::Compute(100),
        Action::Release {
            lock,
            mode: Mode::Write,
        },
        Action::Compute(200_000), // stay alive; do not re-acquire
    ])));
    w.spawn(Box::new(ScriptProgram::new(vec![
        Action::Compute(5_000),
        Action::Acquire {
            lock,
            mode: Mode::Write,
            try_for: None,
        },
        Action::Compute(100),
        Action::Release {
            lock,
            mode: Mode::Write,
        },
    ])));
    w.run_to_completion();
    let c = w.report_counters();
    assert_eq!(c.get("locks_granted"), 2);
    assert_eq!(
        c.get("flt_parks"),
        2,
        "both releases were uncontended parks"
    );
    assert_eq!(
        c.get("flt_fwd_unparks"),
        1,
        "t1's request unparked t0's release"
    );
}

#[test]
fn flt_capacity_evicts_oldest() {
    // Parking more locks than entries forces evictions (visible releases).
    let mut w = flt_world(2, 4, 3);
    let locks: Vec<_> = (0..5).map(|_| w.mach().alloc().alloc_line()).collect();
    let mut script = Vec::new();
    for &l in &locks {
        script.push(Action::Acquire {
            lock: l,
            mode: Mode::Write,
            try_for: None,
        });
        script.push(Action::Release {
            lock: l,
            mode: Mode::Write,
        });
    }
    script.push(Action::Compute(100_000));
    w.spawn(Box::new(ScriptProgram::new(script)));
    w.run_to_completion();
    let c = w.report_counters();
    assert_eq!(c.get("flt_parks"), 5);
    assert!(c.get("flt_unparks") >= 3, "capacity 2 must evict: {c:?}");
}

#[test]
fn different_local_thread_forces_unpark() {
    // Two threads time-share one core; the second thread's acquire of a
    // lock parked by the first must go through a visible release.
    let mut w = flt_world(4, 1, 4);
    let lock = w.mach().alloc().alloc_line();
    w.spawn(Box::new(ScriptProgram::new(vec![
        Action::Acquire {
            lock,
            mode: Mode::Write,
            try_for: None,
        },
        Action::Release {
            lock,
            mode: Mode::Write,
        },
        Action::Yield,
        Action::Compute(10),
    ])));
    w.spawn(Box::new(ScriptProgram::new(vec![
        Action::Acquire {
            lock,
            mode: Mode::Write,
            try_for: None,
        },
        Action::Compute(10),
        Action::Release {
            lock,
            mode: Mode::Write,
        },
    ])));
    w.run_to_completion();
    let c = w.report_counters();
    assert_eq!(c.get("locks_granted"), 2);
    assert!(c.get("flt_unparks") >= 1, "{c:?}");
}

#[test]
fn contended_workload_with_flt_stays_correct() {
    // Mixed private/shared: each thread has a private lock plus a shared
    // one; the checker and grant accounting validate the combination.
    let mut w = flt_world(4, 8, 5);
    let shared = w.mach().alloc().alloc_line();
    let privates: Vec<_> = (0..8).map(|_| w.mach().alloc().alloc_line()).collect();
    for &private in privates.iter().take(8) {
        let mut script = Vec::new();
        for _ in 0..10 {
            script.push(Action::Acquire {
                lock: private,
                mode: Mode::Write,
                try_for: None,
            });
            script.push(Action::Compute(50));
            script.push(Action::Release {
                lock: private,
                mode: Mode::Write,
            });
            script.push(Action::Acquire {
                lock: shared,
                mode: Mode::Write,
                try_for: None,
            });
            script.push(Action::Compute(50));
            script.push(Action::Release {
                lock: shared,
                mode: Mode::Write,
            });
        }
        w.spawn(Box::new(ScriptProgram::new(script)));
    }
    w.run_to_completion();
    let c = w.report_counters();
    assert_eq!(c.get("locks_granted"), 8 * 10 * 2);
    assert!(c.get("flt_hits") > 0);
}

#[test]
fn radiosity_pattern_recovers_with_flt() {
    // The paper's Radiosity observation: coherence locks win on private
    // work queues via implicit biasing; the FLT restores that for the LCU.
    use locksim_harness::{run_app, AppSel, BackendKind};
    use locksim_swlocks::SwAlg;

    let posix = run_app(AppSel::Radiosity, BackendKind::Sw(SwAlg::Posix), 6) as f64;
    let lcu = run_app(AppSel::Radiosity, BackendKind::Lcu, 6) as f64;
    let lcu_flt = run_app(AppSel::Radiosity, BackendKind::LcuFlt, 6) as f64;
    assert!(lcu > posix * 0.98, "plain LCU should not beat posix here");
    assert!(
        lcu_flt < lcu * 0.9,
        "FLT should recover most of the biasing: flt={lcu_flt} lcu={lcu} posix={posix}"
    );
}

#[test]
fn flt_unpark_retry_does_not_complete_a_finished_release() {
    // With no ordinary LCU entries, every uncontended release borrows the
    // one remote-request entry until the LRT acknowledges it. An FLT unpark
    // that finds it busy retries later; that retry must not complete a
    // release, because the thread finished releasing the parked lock long
    // ago and is now blocked in an acquire.
    let mut cfg = MachineConfig::model_a(1);
    cfg.lcu_entries = 0;
    cfg.flt_entries = 1;
    let mut w = World::new(cfg, Box::new(LcuBackend::new()), 1);
    let l1 = w.mach().alloc().alloc_line();
    let l3 = w.mach().alloc().alloc_line();
    let acquire = |lock, mode| Action::Acquire {
        lock,
        mode,
        try_for: None,
    };
    let release = |lock, mode| Action::Release { lock, mode };
    w.spawn(Box::new(ScriptProgram::new(vec![
        // Parks l1 in the FLT.
        acquire(l1, Mode::Write),
        release(l1, Mode::Write),
        // Its release holds the remote-request entry until acknowledged.
        acquire(l3, Mode::Read),
        release(l3, Mode::Read),
        // A read acquire unparks l1 while that entry is still busy.
        acquire(l1, Mode::Read),
        Action::Compute(100),
        release(l1, Mode::Read),
    ])));
    w.run_to_completion();
    let c = w.report_counters();
    assert_eq!(c.get("locks_granted"), 3, "{c:?}");
    assert_eq!(c.get("flt_unparks"), 1, "{c:?}");
    assert_eq!(
        c.get("lcu_uncontended_releases"),
        2,
        "only the two releases a thread waited on count: {c:?}"
    );
}
