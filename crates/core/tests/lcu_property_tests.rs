//! Property-based and adversarial tests of the LCU protocol: random
//! workloads over random configurations must complete with exact grant
//! accounting (the machine's checker enforces exclusion throughout).

use std::cell::RefCell;
use std::rc::Rc;

use locksim_core::LcuBackend;
use locksim_engine::{RngStream, Time};
use locksim_machine::testing::FnProgram;
use locksim_machine::{Action, Addr, Ctx, MachineConfig, Mode, Outcome, ThreadId, World};

/// A generic lock-loop driven by a per-thread op script.
#[derive(Debug, Clone)]
struct OpScript {
    /// (lock index, is_write, cs_cycles, think_cycles)
    ops: Vec<(usize, bool, u16, u16)>,
}

fn spawn_script(w: &mut World, locks: &[Addr], script: OpScript, done: Rc<RefCell<u64>>) {
    let locks = locks.to_vec();
    let mut i = 0;
    let mut stage = 0u8;
    w.spawn(Box::new(FnProgram(
        #[allow(clippy::never_loop)]
        move |_: &mut Ctx<'_>, _: Outcome| loop {
            if i == script.ops.len() {
                return Action::Done;
            }
            let (l, wr, cs, think) = script.ops[i];
            let mode = if wr { Mode::Write } else { Mode::Read };
            match stage {
                0 => {
                    stage = 1;
                    return Action::Acquire {
                        lock: locks[l % locks.len()],
                        mode,
                        try_for: None,
                    };
                }
                1 => {
                    stage = 2;
                    return Action::Compute(u64::from(cs) + 1);
                }
                2 => {
                    stage = 3;
                    return Action::Release {
                        lock: locks[l % locks.len()],
                        mode,
                    };
                }
                _ => {
                    *done.borrow_mut() += 1;
                    stage = 0;
                    i += 1;
                    return Action::Compute(u64::from(think) + 1);
                }
            }
        },
    )));
}

/// Random single-lock-at-a-time workloads over random machine shapes
/// complete with every acquire granted exactly once.
#[test]
fn random_workloads_complete_exactly() {
    for case in 0..24 {
        let mut rng = RngStream::new(case, 3);
        let mut cfg = MachineConfig::model_a(rng.range(2, 12) as usize);
        let n_locks = rng.range(1, 4);
        cfg.lcu_entries = rng.range(2, 10) as usize;
        let mut w = World::new(cfg, Box::new(LcuBackend::new()), 1234);
        let locks: Vec<Addr> = (0..n_locks)
            .map(|_| w.mach().alloc().alloc_line())
            .collect();
        let done = Rc::new(RefCell::new(0u64));
        let mut expected = 0;
        for _ in 0..rng.range(1, 10) {
            let ops: Vec<_> = (0..rng.range(1, 12))
                .map(|_| {
                    let lock = rng.below(4) as usize;
                    let write = rng.chance(0.5);
                    (lock, write, rng.below(200) as u16, rng.below(200) as u16)
                })
                .collect();
            expected += ops.len() as u64;
            spawn_script(&mut w, &locks, OpScript { ops }, done.clone());
        }
        w.run_to_completion();
        assert_eq!(*done.borrow(), expected, "case {case}");
        let granted = w.report_counters().get("locks_granted");
        assert_eq!(granted, expected, "case {case}");
    }
}

/// The ablated configurations (no direct transfer, no fast re-acquire,
/// no reservation) remain correct — only timing may change.
#[test]
fn ablated_configs_remain_correct() {
    for case in 0..24 {
        let mut rng = RngStream::new(case, 4);
        let mut cfg = MachineConfig::model_a(8);
        cfg.lcu_direct_transfer = rng.chance(0.5);
        cfg.lcu_fast_reacquire = rng.chance(0.5);
        cfg.lcu_reservation = rng.chance(0.5);
        cfg.lcu_entries = 3;
        let write_pct = rng.below(101) as u16;
        let mut w = World::new(cfg, Box::new(LcuBackend::new()), 99);
        let lock = w.mach().alloc().alloc_line();
        let done = Rc::new(RefCell::new(0u64));
        for t in 0..8u16 {
            let ops = (0..6)
                .map(|i| {
                    let write = (write_pct * 101 + t * 7 + i) % 100 < write_pct;
                    (0usize, write, 50u16, 50u16)
                })
                .collect();
            spawn_script(&mut w, &[lock], OpScript { ops }, done.clone());
        }
        w.run_to_completion();
        assert_eq!(*done.borrow(), 48, "case {case}");
    }
}

/// A trylock abort mid-queue must not lose the grant: the grant passes
/// through the abandoned entry to the next waiter.
#[test]
fn trylock_abort_mid_queue_passes_grant_through() {
    let mut w = World::new(MachineConfig::model_a(8), Box::new(LcuBackend::new()), 5);
    let lock = w.mach().alloc().alloc_line();
    let order = Rc::new(RefCell::new(Vec::new()));
    // t0 holds for 40k.
    {
        let order = order.clone();
        let mut stage = 0;
        w.spawn(Box::new(FnProgram(move |_: &mut Ctx<'_>, _: Outcome| {
            stage += 1;
            match stage {
                1 => Action::Acquire {
                    lock,
                    mode: Mode::Write,
                    try_for: None,
                },
                2 => Action::Compute(40_000),
                3 => {
                    order.borrow_mut().push(("t0-release", 0));
                    Action::Release {
                        lock,
                        mode: Mode::Write,
                    }
                }
                _ => Action::Done,
            }
        })));
    }
    // t1 trylocks with a short budget (will abort while first in queue).
    {
        let order = order.clone();
        let mut stage = 0;
        w.spawn(Box::new(FnProgram(move |ctx: &mut Ctx<'_>, o: Outcome| {
            stage += 1;
            match stage {
                1 => Action::Compute(1_000),
                2 => Action::Acquire {
                    lock,
                    mode: Mode::Write,
                    try_for: Some(5_000),
                },
                _ => {
                    order
                        .borrow_mut()
                        .push(("t1-outcome", ctx.now.cycles() as i64 as i32));
                    assert_eq!(o, Outcome::Failed);
                    Action::Done
                }
            }
        })));
    }
    // t2 queues behind t1 with a blocking acquire and must receive the
    // grant that t1's abandoned entry passes through.
    {
        let order = order.clone();
        let mut stage = 0;
        w.spawn(Box::new(FnProgram(move |_: &mut Ctx<'_>, _: Outcome| {
            stage += 1;
            match stage {
                1 => Action::Compute(2_000),
                2 => Action::Acquire {
                    lock,
                    mode: Mode::Write,
                    try_for: None,
                },
                3 => {
                    order.borrow_mut().push(("t2-granted", 0));
                    Action::Release {
                        lock,
                        mode: Mode::Write,
                    }
                }
                _ => Action::Done,
            }
        })));
    }
    w.run_to_completion();
    let names: Vec<&str> = order.borrow().iter().map(|&(n, _)| n).collect();
    assert_eq!(names, vec!["t1-outcome", "t0-release", "t2-granted"]);
    let c = w.report_counters();
    assert_eq!(c.get("locks_failed"), 1);
    assert_eq!(c.get("locks_granted"), 2);
    assert!(c.get("lcu_pass_throughs") >= 1, "{c:?}");
}

/// The reservation mechanism gives a nonblocking (overflowed) requestor the
/// lock even while ordinary requestors keep hammering it.
#[test]
fn reservation_prevents_nonblocking_starvation() {
    // One-entry LCUs: the second lock a thread touches must go nonblocking.
    let mut cfg = MachineConfig::model_a(8);
    cfg.lcu_entries = 1;
    let mut w = World::new(cfg, Box::new(LcuBackend::new()), 6);
    let busy = w.mach().alloc().alloc_line();
    let target = w.mach().alloc().alloc_line();
    // Thread 0 holds `busy` *contended* (a partner queues behind it, which
    // re-allocates and pins the single ordinary entry), then acquires
    // `target` — which must use the nonblocking local-request entry.
    w.spawn(Box::new(locksim_machine::testing::ScriptProgram::new(
        vec![
            Action::Compute(10_000),
            Action::Acquire {
                lock: busy,
                mode: Mode::Write,
                try_for: None,
            },
            // The partner enqueues on `busy` during this window.
            Action::Compute(6_000),
            Action::Acquire {
                lock: target,
                mode: Mode::Write,
                try_for: None,
            },
            Action::Compute(100),
            Action::Release {
                lock: target,
                mode: Mode::Write,
            },
            Action::Release {
                lock: busy,
                mode: Mode::Write,
            },
        ],
    )));
    // The partner that keeps t0's busy-entry alive in the queue.
    w.spawn(Box::new(locksim_machine::testing::ScriptProgram::new(
        vec![
            Action::Compute(12_000),
            Action::Acquire {
                lock: busy,
                mode: Mode::Write,
                try_for: None,
            },
            Action::Release {
                lock: busy,
                mode: Mode::Write,
            },
        ],
    )));
    // Three rivals churn `target` with ordinary blocking acquires.
    for _ in 0..3 {
        let mut script = Vec::new();
        for _ in 0..30 {
            script.push(Action::Acquire {
                lock: target,
                mode: Mode::Write,
                try_for: None,
            });
            script.push(Action::Compute(300));
            script.push(Action::Release {
                lock: target,
                mode: Mode::Write,
            });
        }
        w.spawn(Box::new(locksim_machine::testing::ScriptProgram::new(
            script,
        )));
    }
    w.run_to_completion();
    let c = w.report_counters();
    assert_eq!(c.get("locks_granted"), 2 + 1 + 90);
    // The starving nonblocking requestor went through denial + reservation.
    assert!(c.get("lrt_retries") > 0, "{c:?}");
}

/// Suspension (forced preemption) while waiting: the LCU's grant timeout
/// forwards the grant past the sleeping thread, which still gets the lock
/// after rescheduling.
#[test]
fn preempted_waiter_is_skipped_then_served() {
    let mut cfg = MachineConfig::model_a(2);
    cfg.quantum = 30_000;
    let mut w = World::new(cfg, Box::new(LcuBackend::new()), 7);
    let lock = w.mach().alloc().alloc_line();
    let counter = w.mach().alloc().alloc_line();
    // Three threads on two cores: someone is always preempted.
    for _ in 0..3 {
        let mut script = Vec::new();
        for _ in 0..8 {
            script.push(Action::Acquire {
                lock,
                mode: Mode::Write,
                try_for: None,
            });
            script.push(Action::Rmw(counter, locksim_machine::RmwOp::FetchAdd(1)));
            script.push(Action::Compute(8_000));
            script.push(Action::Release {
                lock,
                mode: Mode::Write,
            });
        }
        w.spawn(Box::new(locksim_machine::testing::ScriptProgram::new(
            script,
        )));
    }
    w.run_to_completion();
    assert_eq!(w.mach().mem_peek(counter), 24);
}

/// Concurrent readers across the whole machine plus one writer per lock:
/// heavy read-session churn with head-token bypasses stays sound.
#[test]
fn read_session_churn_with_token_bypass() {
    let mut w = World::new(MachineConfig::model_a(16), Box::new(LcuBackend::new()), 8);
    let lock = w.mach().alloc().alloc_line();
    for t in 0..16u64 {
        let mut script = vec![Action::Compute(1 + t * 37)];
        for _ in 0..12 {
            script.push(Action::Acquire {
                lock,
                mode: Mode::Read,
                try_for: None,
            });
            script.push(Action::Compute(400));
            script.push(Action::Release {
                lock,
                mode: Mode::Read,
            });
            script.push(Action::Compute(100));
        }
        w.spawn(Box::new(locksim_machine::testing::ScriptProgram::new(
            script,
        )));
    }
    // One writer interleaving throughout.
    let mut script = vec![Action::Compute(500)];
    for _ in 0..12 {
        script.push(Action::Acquire {
            lock,
            mode: Mode::Write,
            try_for: None,
        });
        script.push(Action::Compute(200));
        script.push(Action::Release {
            lock,
            mode: Mode::Write,
        });
        script.push(Action::Compute(2_000));
    }
    w.spawn(Box::new(locksim_machine::testing::ScriptProgram::new(
        script,
    )));
    w.run_to_completion();
    let c = w.report_counters();
    assert_eq!(c.get("locks_granted"), 16 * 12 + 12);
    assert!(
        c.get("lcu_read_shares") + c.get("lcu_read_propagations") > 0,
        "{c:?}"
    );
}

/// Migration storm: threads hop cores mid-acquire repeatedly; grants are
/// forwarded/timeout-passed and every acquire still completes.
#[test]
fn migration_storm_completes() {
    let mut w = World::new(MachineConfig::model_a(16), Box::new(LcuBackend::new()), 9);
    let lock = w.mach().alloc().alloc_line();
    for _ in 0..4 {
        let mut script = Vec::new();
        for _ in 0..6 {
            script.push(Action::Acquire {
                lock,
                mode: Mode::Write,
                try_for: None,
            });
            script.push(Action::Compute(4_000));
            script.push(Action::Release {
                lock,
                mode: Mode::Write,
            });
        }
        w.spawn(Box::new(locksim_machine::testing::ScriptProgram::new(
            script,
        )));
    }
    // Periodically migrate whichever thread sits on core 1 to a free core.
    let mut next_free = 8;
    for step in 1..12 {
        let exit = w.run_for(Some(Time::from_cycles(step * 5_000)));
        if exit != locksim_machine::RunExit::TimeLimit {
            break;
        }
        for t in 0..4u32 {
            if w.mach().core_of(ThreadId(t)).map(|c| c.0) == Some(1) && next_free < 16 {
                assert!(w.migrate(ThreadId(t), next_free));
                next_free += 1;
            }
        }
    }
    w.run_to_completion();
    assert_eq!(w.report_counters().get("locks_granted"), 24);
}

/// Regression: a read session ending through an RD_REL token bypass must
/// not hand the head token directly to a writer while overflow-mode
/// readers still hold the lock (found by the full-scale STM run).
#[test]
fn token_bypass_respects_overflow_readers() {
    // Tiny LCUs force overflow-mode read grants.
    let mut cfg = MachineConfig::model_a(16);
    cfg.lcu_entries = 1;
    let mut w = World::new(cfg, Box::new(LcuBackend::new()), 31);
    let pin = w.mach().alloc().alloc_line();
    let target = w.mach().alloc().alloc_line();
    // Eight "pinned" readers: each holds `pin` (occupying its ordinary
    // entry) and then read-acquires `target` nonblockingly — some land in
    // overflow mode — holding both for a long window.
    for _ in 0..8 {
        w.spawn(Box::new(locksim_machine::testing::ScriptProgram::new(
            vec![
                Action::Acquire {
                    lock: pin,
                    mode: Mode::Read,
                    try_for: None,
                },
                Action::Acquire {
                    lock: target,
                    mode: Mode::Read,
                    try_for: None,
                },
                Action::Compute(30_000),
                Action::Release {
                    lock: target,
                    mode: Mode::Read,
                },
                Action::Release {
                    lock: pin,
                    mode: Mode::Read,
                },
            ],
        )));
    }
    // Churning queue readers that release quickly (building RD_REL chains).
    for _ in 0..4 {
        let mut script = vec![Action::Compute(2_000)];
        for _ in 0..10 {
            script.push(Action::Acquire {
                lock: target,
                mode: Mode::Read,
                try_for: None,
            });
            script.push(Action::Compute(100));
            script.push(Action::Release {
                lock: target,
                mode: Mode::Read,
            });
        }
        w.spawn(Box::new(locksim_machine::testing::ScriptProgram::new(
            script,
        )));
    }
    // Writers that enqueue behind the readers; the checker panics if any
    // writer is granted while overflow readers hold.
    for _ in 0..3 {
        let mut script = vec![Action::Compute(4_000)];
        for _ in 0..5 {
            script.push(Action::Acquire {
                lock: target,
                mode: Mode::Write,
                try_for: None,
            });
            script.push(Action::Compute(200));
            script.push(Action::Release {
                lock: target,
                mode: Mode::Write,
            });
        }
        w.spawn(Box::new(locksim_machine::testing::ScriptProgram::new(
            script,
        )));
    }
    w.run_to_completion();
    let c = w.report_counters();
    assert_eq!(c.get("locks_granted"), 16 + 40 + 15);
    assert!(
        c.get("lrt_overflow_grants") > 0,
        "scenario must exercise overflow: {c:?}"
    );
}
