//! Machine-level integration tests: programs + memory system + scheduler +
//! the idealized lock backend.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use locksim_machine::testing::{FnProgram, ScriptProgram};
use locksim_machine::{
    Action, Addr, IdealBackend, MachineConfig, Mode, Outcome, RmwOp, RunExit, ThreadId, World,
};
use locksim_trace::TraceKind;

fn world_a(chips: usize) -> World {
    World::new(
        MachineConfig::model_a(chips),
        Box::new(IdealBackend::new()),
        42,
    )
}

#[test]
fn empty_world_finishes_immediately() {
    let mut w = world_a(2);
    w.run_to_completion();
    assert_eq!(w.mach().now().cycles(), 0);
}

#[test]
#[should_panic(expected = "at most 64 caches")]
fn more_cores_than_the_sharer_mask_holds_are_rejected() {
    world_a(65);
}

#[test]
fn compute_advances_time() {
    let mut w = world_a(2);
    w.spawn(Box::new(ScriptProgram::new(vec![Action::Compute(1000)])));
    w.run_to_completion();
    assert_eq!(w.mach().now().cycles(), 1000);
}

#[test]
fn writes_become_visible() {
    let mut w = world_a(2);
    let a = w.mach().alloc().alloc_line();
    w.spawn(Box::new(ScriptProgram::new(vec![
        Action::Write(a, 11),
        Action::Write(a.add(1), 22),
    ])));
    w.run_to_completion();
    assert_eq!(w.mach().mem_peek(a), 11);
    assert_eq!(w.mach().mem_peek(a.add(1)), 22);
}

#[test]
fn read_returns_written_value() {
    let mut w = world_a(2);
    let a = w.mach().alloc().alloc_line();
    w.mach().mem_poke(a, 77);
    let seen = Rc::new(RefCell::new(None));
    let seen2 = seen.clone();
    let mut step = 0;
    w.spawn(Box::new(FnProgram(
        move |_ctx: &mut locksim_machine::Ctx<'_>, outcome: Outcome| {
            step += 1;
            match step {
                1 => Action::Read(a),
                _ => {
                    if let Outcome::Value(v) = outcome {
                        *seen2.borrow_mut() = Some(v);
                    }
                    Action::Done
                }
            }
        },
    )));
    w.run_to_completion();
    assert_eq!(*seen.borrow(), Some(77));
}

#[test]
fn rmw_returns_old_value_and_applies() {
    let mut w = world_a(2);
    let a = w.mach().alloc().alloc_line();
    w.mach().mem_poke(a, 5);
    let old = Rc::new(RefCell::new(None));
    let old2 = old.clone();
    let mut step = 0;
    w.spawn(Box::new(FnProgram(
        move |_ctx: &mut locksim_machine::Ctx<'_>, outcome: Outcome| {
            step += 1;
            match step {
                1 => Action::Rmw(a, RmwOp::FetchAdd(10)),
                _ => {
                    if let Outcome::Value(v) = outcome {
                        *old2.borrow_mut() = Some(v);
                    }
                    Action::Done
                }
            }
        },
    )));
    w.run_to_completion();
    assert_eq!(*old.borrow(), Some(5));
    assert_eq!(w.mach().mem_peek(a), 15);
}

#[test]
fn memory_latency_in_plausible_band() {
    // A cold load on Model A should take on the order of the paper's
    // 186-cycle memory latency: L1 miss + network + directory + DRAM.
    let mut w = world_a(32);
    let a = Addr(8 * 1000);
    w.spawn(Box::new(ScriptProgram::new(vec![Action::Read(a)])));
    w.run_to_completion();
    let t = w.mach().now().cycles();
    assert!((120..320).contains(&t), "cold load took {t} cycles");
}

#[test]
fn l1_hit_is_cheap() {
    let mut w = world_a(32);
    let a = Addr(8 * 1000);
    w.spawn(Box::new(ScriptProgram::new(vec![
        Action::Read(a),
        Action::Read(a),
        Action::Read(a),
    ])));
    w.run_to_completion();
    let total = w.mach().now().cycles();
    // Subsequent hits add only L1 latency (3 cycles each).
    let mut w2 = world_a(32);
    w2.spawn(Box::new(ScriptProgram::new(vec![Action::Read(a)])));
    w2.run_to_completion();
    let first = w2.mach().now().cycles();
    assert_eq!(total, first + 2 * 3);
}

#[test]
fn mutual_exclusion_under_ideal_backend() {
    // N threads increment a shared counter under a write lock; no lost
    // updates means the lock provided mutual exclusion (the increment is a
    // non-atomic read/compute/write sequence).
    let mut w = world_a(8);
    let lock = w.mach().alloc().alloc_line();
    let counter = w.mach().alloc().alloc_line();
    const ITERS: usize = 20;
    for _ in 0..8 {
        let mut iter = 0;
        let mut stage = 0;
        let mut val = 0;
        w.spawn(Box::new(FnProgram(
            move |_ctx: &mut locksim_machine::Ctx<'_>, outcome: Outcome| loop {
                match stage {
                    0 => {
                        if iter == ITERS {
                            return Action::Done;
                        }
                        stage = 1;
                        return Action::Acquire {
                            lock,
                            mode: Mode::Write,
                            try_for: None,
                        };
                    }
                    1 => {
                        stage = 2;
                        return Action::Read(counter);
                    }
                    2 => {
                        let Outcome::Value(v) = outcome else {
                            panic!("expected value")
                        };
                        val = v;
                        stage = 3;
                        return Action::Compute(20);
                    }
                    3 => {
                        stage = 4;
                        return Action::Write(counter, val + 1);
                    }
                    4 => {
                        stage = 5;
                        return Action::Release {
                            lock,
                            mode: Mode::Write,
                        };
                    }
                    5 => {
                        stage = 0;
                        iter += 1;
                        continue;
                    }
                    _ => unreachable!(),
                }
            },
        )));
    }
    w.run_to_completion();
    assert_eq!(w.mach().mem_peek(counter), 8 * ITERS as u64);
}

#[test]
fn readers_run_concurrently_writers_alone() {
    // 4 readers acquire the same lock and deliberately overlap (each holds
    // it across a long compute). With concurrent readers the total runtime
    // is ~one CS, not four.
    let mut w = world_a(8);
    let lock = w.mach().alloc().alloc_line();
    for _ in 0..4 {
        w.spawn(Box::new(ScriptProgram::new(vec![
            Action::Acquire {
                lock,
                mode: Mode::Read,
                try_for: None,
            },
            Action::Compute(10_000),
            Action::Release {
                lock,
                mode: Mode::Read,
            },
        ])));
    }
    w.run_to_completion();
    let readers_time = w.mach().now().cycles();
    assert!(
        readers_time < 2 * 10_000,
        "readers serialized: {readers_time}"
    );

    let mut w = world_a(8);
    let lock = w.mach().alloc().alloc_line();
    for _ in 0..4 {
        w.spawn(Box::new(ScriptProgram::new(vec![
            Action::Acquire {
                lock,
                mode: Mode::Write,
                try_for: None,
            },
            Action::Compute(10_000),
            Action::Release {
                lock,
                mode: Mode::Write,
            },
        ])));
    }
    w.run_to_completion();
    let writers_time = w.mach().now().cycles();
    assert!(
        writers_time >= 4 * 10_000,
        "writers overlapped: {writers_time}"
    );
}

#[test]
fn trylock_with_zero_budget_fails_when_held() {
    let mut w = world_a(4);
    let lock = w.mach().alloc().alloc_line();
    let outcome_seen = Rc::new(RefCell::new(None));
    let seen = outcome_seen.clone();
    // Thread 0 holds the lock for a long time.
    w.spawn(Box::new(ScriptProgram::new(vec![
        Action::Acquire {
            lock,
            mode: Mode::Write,
            try_for: None,
        },
        Action::Compute(50_000),
        Action::Release {
            lock,
            mode: Mode::Write,
        },
    ])));
    // Thread 1 tries after a delay and must fail fast.
    let mut step = 0;
    w.spawn(Box::new(FnProgram(
        move |_ctx: &mut locksim_machine::Ctx<'_>, outcome: Outcome| {
            step += 1;
            match step {
                1 => Action::Compute(1_000),
                2 => Action::Acquire {
                    lock,
                    mode: Mode::Write,
                    try_for: Some(0),
                },
                _ => {
                    *seen.borrow_mut() = Some(outcome);
                    Action::Done
                }
            }
        },
    )));
    w.run_to_completion();
    assert_eq!(*outcome_seen.borrow(), Some(Outcome::Failed));
}

#[test]
fn oversubscription_time_slices_all_threads() {
    // 6 threads on 2 cores: everyone must finish, and preemptions happen.
    let mut cfg = MachineConfig::model_a(2);
    cfg.quantum = 5_000;
    let mut w = World::new(cfg, Box::new(IdealBackend::new()), 7);
    for _ in 0..6 {
        w.spawn(Box::new(ScriptProgram::new(vec![
            Action::Compute(20_000),
            Action::Compute(20_000),
        ])));
    }
    w.run_to_completion();
    let total_preempts: u64 = (0..6)
        .map(|i| w.mach().thread_stats(ThreadId(i)).preemptions)
        .sum();
    assert!(
        total_preempts > 0,
        "expected preemptions under oversubscription"
    );
    // 6 threads × 40k cycles of work on 2 cores ≥ 120k cycles.
    assert!(w.mach().now().cycles() >= 120_000);
}

#[test]
fn yield_rotates_ready_threads() {
    // One core, two threads; the first yields so the second can run.
    let order = Rc::new(RefCell::new(Vec::new()));
    let o1 = order.clone();
    let o2 = order.clone();
    let mut w = world_a(1);
    let mut step1 = 0;
    w.spawn(Box::new(FnProgram(
        move |_ctx: &mut locksim_machine::Ctx<'_>, _: Outcome| {
            step1 += 1;
            match step1 {
                1 => {
                    o1.borrow_mut().push("t0-start");
                    Action::Yield
                }
                _ => {
                    o1.borrow_mut().push("t0-end");
                    Action::Done
                }
            }
        },
    )));
    let mut step2 = 0;
    w.spawn(Box::new(FnProgram(
        move |_ctx: &mut locksim_machine::Ctx<'_>, _: Outcome| {
            step2 += 1;
            match step2 {
                1 => {
                    o2.borrow_mut().push("t1-run");
                    Action::Compute(10)
                }
                _ => Action::Done,
            }
        },
    )));
    w.run_to_completion();
    assert_eq!(*order.borrow(), vec!["t0-start", "t1-run", "t0-end"]);
}

#[test]
fn migration_moves_thread_to_new_core() {
    let mut w = world_a(4);
    // A long-running thread on core 0.
    w.spawn(Box::new(ScriptProgram::new(vec![
        Action::Compute(1_000),
        Action::Compute(1_000),
    ])));
    let t = ThreadId(0);
    // Run a little, then migrate to core 2.
    w.run_for(Some(locksim_engine::Time::from_cycles(500)));
    assert_eq!(w.mach().core_of(t).map(|c| c.0), Some(0));
    assert!(w.migrate(t, 2));
    w.run_to_completion();
    assert_eq!(w.mach().counters_mut().get("migrations"), 1);
}

#[test]
fn run_for_returns_time_limit() {
    let mut w = world_a(2);
    w.spawn(Box::new(ScriptProgram::new(vec![Action::Compute(
        1_000_000,
    )])));
    let exit = w.run_for(Some(locksim_engine::Time::from_cycles(1_000)));
    assert_eq!(exit, RunExit::TimeLimit);
}

#[test]
fn thread_stats_record_acquires_and_waits() {
    let mut w = world_a(2);
    let lock = w.mach().alloc().alloc_line();
    for _ in 0..2 {
        w.spawn(Box::new(ScriptProgram::new(vec![
            Action::Acquire {
                lock,
                mode: Mode::Write,
                try_for: None,
            },
            Action::Compute(5_000),
            Action::Release {
                lock,
                mode: Mode::Write,
            },
        ])));
    }
    w.run_to_completion();
    let s0 = w.mach().thread_stats(ThreadId(0));
    let s1 = w.mach().thread_stats(ThreadId(1));
    assert_eq!(s0.acquires, 1);
    assert_eq!(s1.acquires, 1);
    // The second thread waited roughly one critical section.
    assert!(s0.wait_cycles + s1.wait_cycles >= 4_000);
}

#[test]
fn report_counters_include_lock_and_network_activity() {
    let mut w = world_a(4);
    let lock = w.mach().alloc().alloc_line();
    let data = w.mach().alloc().alloc_line();
    w.spawn(Box::new(ScriptProgram::new(vec![
        Action::Acquire {
            lock,
            mode: Mode::Write,
            try_for: None,
        },
        Action::Write(data, 1),
        Action::Release {
            lock,
            mode: Mode::Write,
        },
    ])));
    w.run_to_completion();
    let c = w.report_counters();
    assert_eq!(c.get("locks_granted"), 1);
    assert!(c.get("net_control_msgs") > 0, "cold write misses to memory");
}

#[test]
fn an_upgrade_grant_without_data_is_received_as_control() {
    // t0 and t1 read a line, so both share it in S; then t1 writes it. The
    // directory invalidates t0's copy and grants t1 M without a data flit,
    // since t1 already holds the line: the grant is sent as control and
    // must be received as control.
    let mut w = world_a(2);
    w.enable_trace(1 << 12);
    let a = w.mach().alloc().alloc_line();
    w.spawn(Box::new(ScriptProgram::new(vec![Action::Read(a)])));
    w.spawn(Box::new(ScriptProgram::new(vec![
        Action::Compute(1_000),
        Action::Read(a),
        Action::Compute(1_000),
        Action::Write(a, 1),
    ])));
    w.run_to_completion();
    let mut sent = Vec::new();
    let mut received = Vec::new();
    let mut upgrade_recv = None;
    let mut last_recv = None;
    for e in w.mach_ref().tracer().events() {
        match e.kind {
            TraceKind::MsgSend { class, .. } => sent.push(class),
            TraceKind::MsgRecv { class, .. } => {
                received.push(class);
                last_recv = Some(class);
            }
            TraceKind::Coherence {
                from: "S", to: "M", ..
            } => upgrade_recv = last_recv,
            _ => {}
        }
    }
    assert_eq!(upgrade_recv, Some("control"), "the S -> M grant");
    sent.sort_unstable();
    received.sort_unstable();
    assert_eq!(sent, received, "every message is received as it was sent");
    // The two read fills carry the line; the upgrade does not.
    assert_eq!(w.report_counters().get("net_data_msgs"), 2);
}

#[test]
#[should_panic(expected = "every thread finished, but ThreadId(0) still holds")]
fn snapshot_rejects_a_lock_still_held_when_every_thread_finished() {
    let mut w = world_a(2);
    let lock = w.mach().alloc().alloc_line();
    w.spawn(Box::new(ScriptProgram::new(vec![Action::Acquire {
        lock,
        mode: Mode::Write,
        try_for: None,
    }])));
    w.run_to_completion();
    w.metrics_snapshot();
}

#[test]
fn lockstat_bump_counts_into_the_run_and_the_lock() {
    for lockstat in [false, true] {
        let mut w = world_a(2);
        if lockstat {
            w.enable_lockstat(None);
        }
        let lock = w.mach().alloc().alloc_line();
        w.mach().lockstat_bump(lock, "probe_events");
        assert_eq!(w.report_counters().get("probe_events"), 1);
        let per_lock = w
            .lockstat()
            .lock(lock.0)
            .and_then(|s| s.aux.get("probe_events").copied());
        assert_eq!(per_lock, lockstat.then_some(1), "lockstat {lockstat}");
    }
}

#[test]
fn deterministic_across_runs() {
    let run = |seed| {
        let mut w = World::new(
            MachineConfig::model_b(),
            Box::new(IdealBackend::new()),
            seed,
        );
        let lock = w.mach().alloc().alloc_line();
        let data = w.mach().alloc().alloc_line();
        for _ in 0..8 {
            w.spawn(Box::new(ScriptProgram::new(vec![
                Action::Acquire {
                    lock,
                    mode: Mode::Write,
                    try_for: None,
                },
                Action::Rmw(data, RmwOp::FetchAdd(1)),
                Action::Release {
                    lock,
                    mode: Mode::Write,
                },
                Action::Compute(100),
            ])));
        }
        w.run_to_completion();
        w.mach().now().cycles()
    };
    assert_eq!(run(9), run(9));
    // Note: with a different seed timing may or may not differ (programs
    // here are deterministic), so only same-seed equality is asserted.
}

#[test]
fn suspend_parks_thread_until_resume() {
    let mut w = world_a(2);
    w.spawn(Box::new(ScriptProgram::new(vec![
        Action::Compute(1_000),
        Action::Compute(1_000),
    ])));
    let t = ThreadId(0);
    assert_eq!(w.run_until_cycle(500), RunExit::TimeLimit);
    assert!(w.suspend(t));
    assert!(w.mach().is_suspended(t));
    assert!(!w.suspend(t), "double suspend is a no-op");
    // A suspended thread never runs: the queue drains with it still alive.
    assert_eq!(w.run_for(None), RunExit::Stalled);
    assert!(w.resume_thread(t));
    assert!(!w.mach().is_suspended(t));
    w.run_to_completion();
    assert!(w.mach().now().cycles() >= 2_000);
}

#[test]
fn suspend_from_ready_queue_and_resume() {
    // 2 threads on 1 core: t1 waits in the ready queue; suspend it there.
    let mut cfg = MachineConfig::model_a(1);
    cfg.quantum = 100; // slice quickly so both threads make progress
    let mut w = World::new(cfg, Box::new(IdealBackend::new()), 3);
    for _ in 0..2 {
        w.spawn(Box::new(ScriptProgram::new(vec![Action::Compute(5_000)])));
    }
    let t1 = ThreadId(1);
    assert!(!w.mach().is_scheduled(t1), "t1 starts in the ready queue");
    assert!(w.suspend(t1));
    assert_eq!(w.run_for(None), RunExit::Stalled);
    assert!(w.resume_thread(t1));
    w.run_to_completion();
}

#[test]
fn migrate_evicts_target_occupant() {
    let mut w = world_a(2);
    let n = w.mach().n_cores();
    assert!(n >= 2);
    for _ in 0..2 {
        w.spawn(Box::new(ScriptProgram::new(vec![
            Action::Compute(10_000),
            Action::Compute(10_000),
        ])));
    }
    let (t0, t1) = (ThreadId(0), ThreadId(1));
    w.run_until_cycle(500);
    let c1 = w.mach().core_of(t1).unwrap().0 as usize;
    // Move t0 onto t1's core: t1 is evicted to the ready queue and picks
    // up t0's vacated core.
    assert!(w.migrate(t0, c1));
    w.run_to_completion();
    assert!(w.mach().counters_mut().get("migrations") >= 1);
    assert!(w.mach().thread_stats(t1).preemptions >= 1);
}

#[test]
fn run_until_cycle_lands_on_exact_cycle() {
    let mut w = world_a(2);
    w.spawn(Box::new(ScriptProgram::new(vec![Action::Compute(10_000)])));
    assert_eq!(w.run_until_cycle(777), RunExit::TimeLimit);
    assert_eq!(w.mach().now().cycles(), 777);
    w.run_to_completion();
}

#[test]
fn wire_fault_delays_messages_deterministically() {
    let run = |faulty: bool| {
        let mut w = world_a(2);
        if faulty {
            w.mach().set_wire_fault(2, 500);
        }
        let a = w.mach().alloc().alloc_line();
        w.spawn(Box::new(ScriptProgram::new(vec![
            Action::Write(a, 1),
            Action::Read(a.add(1)),
        ])));
        w.run_to_completion();
        (
            w.mach().now().cycles(),
            w.mach().counters_mut().get("wire_fault_delays"),
        )
    };
    let (clean, d0) = run(false);
    let (faulty, d1) = run(true);
    assert_eq!(d0, 0);
    assert!(d1 > 0, "fault must fire");
    assert!(faulty > clean, "delays must slow the run");
    assert_eq!(run(true), run(true), "fault stays deterministic");
}

#[test]
fn suspended_holder_blocks_then_unblocks_waiters() {
    // Writer t0 takes the lock then gets suspended mid-hold; t1's acquire
    // cannot be granted until t0 resumes and releases.
    let mut w = world_a(4);
    let lock = w.mach().alloc().alloc_line();
    for _ in 0..2 {
        w.spawn(Box::new(ScriptProgram::new(vec![
            Action::Acquire {
                lock,
                mode: Mode::Write,
                try_for: None,
            },
            Action::Compute(2_000),
            Action::Release {
                lock,
                mode: Mode::Write,
            },
        ])));
    }
    let t0 = ThreadId(0);
    w.run_until_cycle(1_000);
    assert_eq!(w.mach().holding_count(t0), 1);
    w.suspend(t0);
    let exit = w.run_for(Some(locksim_engine::Time::from_cycles(200_000)));
    assert_ne!(exit, RunExit::AllFinished, "t1 must still be waiting");
    assert!(w.mach().waiting_on(ThreadId(1)).is_some());
    w.resume_thread(t0);
    w.run_to_completion();
}

#[test]
fn holders_of_lists_readers_in_thread_order() {
    // Thread 2 asks first and thread 1 last, so the three readers are
    // granted out of thread order; the holder list is in thread order.
    let mut w = world_a(8);
    w.enable_trace(1 << 12);
    let lock = w.mach().alloc().alloc_line();
    for delay in [200, 300, 100] {
        w.spawn(Box::new(ScriptProgram::new(vec![
            Action::Compute(delay),
            Action::Acquire {
                lock,
                mode: Mode::Read,
                try_for: None,
            },
            Action::Compute(10_000),
            Action::Release {
                lock,
                mode: Mode::Read,
            },
        ])));
    }
    w.run_until_cycle(5_000);
    let granted: Vec<u32> = w
        .mach_ref()
        .tracer()
        .events()
        .filter_map(|e| match e.kind {
            locksim_trace::TraceKind::LockGrant { thread, .. } => Some(thread),
            _ => None,
        })
        .collect();
    assert_eq!(granted, [2, 0, 1]);
    let all = [ThreadId(0), ThreadId(1), ThreadId(2)];
    assert_eq!(w.mach_ref().holders_of(lock), all);
    w.run_to_completion();
    assert!(w.mach_ref().holders_of(lock).is_empty());
}

#[test]
fn every_way_on_and_off_a_core_accounts_and_refills() {
    // 4 threads on 2 cores: t0 yields, quantum ticks slice everyone, t0 is
    // suspended mid-compute and later resumed, and t1 migrates onto t3's
    // core while t2 waits in the ready queue.
    let mut cfg = MachineConfig::model_a(2);
    cfg.quantum = 5_000;
    let mut w = World::new(cfg, Box::new(IdealBackend::new()), 5);
    w.enable_trace(1 << 12);
    let finished: Vec<Rc<Cell<u64>>> = (0..4).map(|_| Rc::new(Cell::new(0))).collect();
    for (i, at) in finished.iter().enumerate() {
        let mut steps = VecDeque::from(if i == 0 {
            vec![
                Action::Compute(3_000),
                Action::Yield,
                Action::Compute(12_000),
            ]
        } else {
            vec![Action::Compute(12_000)]
        });
        let at = at.clone();
        w.spawn(Box::new(FnProgram(
            move |ctx: &mut locksim_machine::Ctx<'_>, _: Outcome| {
                steps.pop_front().unwrap_or_else(|| {
                    at.set(ctx.now.cycles());
                    Action::Done
                })
            },
        )));
    }
    let core = |w: &World, t: u32| w.mach_ref().core_of(ThreadId(t)).map(|c| c.0);
    w.run_until_cycle(12_000);
    assert_eq!(core(&w, 0), Some(1), "t0 is mid-compute on core 1");
    assert!(w.suspend(ThreadId(0)));
    w.run_until_cycle(16_000);
    assert_eq!((core(&w, 1), core(&w, 3)), (Some(0), Some(1)));
    assert!(w.mach().has_ready_threads(), "t2 waits for a core");
    assert!(w.migrate(ThreadId(1), 1));
    // t3 is evicted to the ready queue and t2 refills t1's vacated core.
    assert_eq!(
        (core(&w, 1), core(&w, 2), core(&w, 3)),
        (Some(1), Some(0), None)
    );
    w.run_until_cycle(20_000);
    assert!(w.resume_thread(ThreadId(0)));
    w.run_to_completion();

    // The suspension and the eviction count as preemptions; the yield
    // does not.
    let preemptions: Vec<u64> = (0..4)
        .map(|i| w.mach().thread_stats(ThreadId(i)).preemptions)
        .collect();
    assert_eq!(preemptions, [3, 4, 5, 4]);
    assert_eq!(w.mach().counters_mut().get("migrations"), 1);
    let records = |name: &str| {
        w.mach_ref()
            .tracer()
            .events()
            .filter(|e| e.kind.name() == name)
            .count()
    };
    // One `sched_preempt` per preemption plus one for the yield.
    assert_eq!(records("sched_preempt"), 17);
    assert_eq!(records("sched_migrate"), 1);
    // Every thread spawned at cycle 0, so its lifetime is its finish time.
    let ends: Vec<u64> = finished.iter().map(|at| at.get()).collect();
    assert_eq!(ends, [46_000, 33_500, 41_500, 38_500]);
    for (i, &end) in ends.iter().enumerate() {
        assert_eq!(w.thread_dissection(ThreadId(i as u32)).total(), end);
    }
}
