//! End-to-end LCU/LRT protocol tests on the full simulated machine.
//!
//! The machine's exclusion checker panics on any reader-writer
//! violation, so every test here doubles as an invariant check.

use std::cell::RefCell;
use std::rc::Rc;

use locksim_core::LcuBackend;
use locksim_engine::Time;
use locksim_machine::testing::ScriptProgram;
use locksim_machine::{Action, Addr, Ctx, MachineConfig, Mode, Outcome, Program, ThreadId, World};

/// A critical-section loop: `iters` × { acquire → read counter → compute →
/// (writers: bump counter) → release → think }.
struct CsLoop {
    lock: Addr,
    counter: Addr,
    iters: u32,
    write_pct: u32,
    cs_cycles: u64,
    think_cycles: u64,
    // FSM state
    i: u32,
    stage: u8,
    val: u64,
    is_writer: bool,
}

impl CsLoop {
    fn new(lock: Addr, counter: Addr, iters: u32, write_pct: u32) -> Self {
        CsLoop {
            lock,
            counter,
            iters,
            write_pct,
            cs_cycles: 50,
            think_cycles: 100,
            i: 0,
            stage: 0,
            val: 0,
            is_writer: false,
        }
    }
}

impl Program for CsLoop {
    fn resume(&mut self, ctx: &mut Ctx<'_>, outcome: Outcome) -> Action {
        loop {
            match self.stage {
                0 => {
                    if self.i == self.iters {
                        return Action::Done;
                    }
                    self.is_writer = ctx.rng.below(100) < self.write_pct as u64;
                    self.stage = 1;
                    let mode = if self.is_writer {
                        Mode::Write
                    } else {
                        Mode::Read
                    };
                    return Action::Acquire {
                        lock: self.lock,
                        mode,
                        try_for: None,
                    };
                }
                1 => {
                    assert_eq!(outcome, Outcome::Granted);
                    self.stage = 2;
                    return Action::Read(self.counter);
                }
                2 => {
                    let Outcome::Value(v) = outcome else {
                        panic!("expected value")
                    };
                    self.val = v;
                    self.stage = 3;
                    return Action::Compute(self.cs_cycles);
                }
                3 => {
                    if self.is_writer {
                        self.stage = 4;
                        return Action::Write(self.counter, self.val + 1);
                    }
                    self.stage = 5;
                    continue;
                }
                4 => {
                    self.stage = 5;
                    continue;
                }
                5 => {
                    self.stage = 6;
                    let mode = if self.is_writer {
                        Mode::Write
                    } else {
                        Mode::Read
                    };
                    return Action::Release {
                        lock: self.lock,
                        mode,
                    };
                }
                6 => {
                    self.i += 1;
                    self.stage = 0;
                    return Action::Compute(self.think_cycles);
                }
                _ => unreachable!(),
            }
        }
    }

    fn label(&self) -> &'static str {
        "cs-loop"
    }
}

fn lcu_world(cfg: MachineConfig, seed: u64) -> World {
    World::new(cfg, Box::new(LcuBackend::new()), seed)
}

#[test]
fn single_uncontended_acquire_release() {
    let mut w = lcu_world(MachineConfig::model_a(4), 1);
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
    ])));
    w.run_to_completion();
    let c = w.report_counters();
    assert_eq!(c.get("locks_granted"), 1);
    assert_eq!(c.get("lrt_free_grants"), 1);
    assert_eq!(c.get("lcu_uncontended_takes"), 1);
}

#[test]
fn write_mutual_exclusion_counter() {
    let mut w = lcu_world(MachineConfig::model_a(8), 2);
    let lock = w.mach().alloc().alloc_line();
    let counter = w.mach().alloc().alloc_line();
    const N: u32 = 25;
    for _ in 0..8 {
        w.spawn(Box::new(CsLoop::new(lock, counter, N, 100)));
    }
    w.run_to_completion();
    assert_eq!(w.mach().mem_peek(counter), 8 * N as u64);
}

#[test]
fn contended_writers_use_direct_transfers() {
    let mut w = lcu_world(MachineConfig::model_a(8), 3);
    let lock = w.mach().alloc().alloc_line();
    let counter = w.mach().alloc().alloc_line();
    for _ in 0..8 {
        w.spawn(Box::new(CsLoop::new(lock, counter, 20, 100)));
    }
    w.run_to_completion();
    let c = w.report_counters();
    assert!(
        c.get("lcu_direct_transfers") > 50,
        "expected many direct LCU->LCU transfers, got {}",
        c.get("lcu_direct_transfers")
    );
}

#[test]
fn writers_granted_fifo_when_staggered() {
    // Spawn writers that stagger their first acquire by increasing delays;
    // grants must come back in request order (queue fairness).
    let order = Rc::new(RefCell::new(Vec::new()));
    let mut w = lcu_world(MachineConfig::model_a(8), 4);
    let lock = w.mach().alloc().alloc_line();
    for i in 0..6u32 {
        let order = order.clone();
        let mut stage = 0;
        w.spawn(Box::new(locksim_machine::testing::FnProgram(
            move |ctx: &mut Ctx<'_>, _: Outcome| {
                stage += 1;
                match stage {
                    // Stagger well beyond message latencies so arrival
                    // order at the LRT is deterministic.
                    1 => Action::Compute(1 + i as u64 * 3_000),
                    2 => Action::Acquire {
                        lock,
                        mode: Mode::Write,
                        try_for: None,
                    },
                    3 => {
                        order.borrow_mut().push(ctx.tid.0);
                        // Hold long enough that everyone queues up.
                        Action::Compute(30_000)
                    }
                    4 => Action::Release {
                        lock,
                        mode: Mode::Write,
                    },
                    _ => Action::Done,
                }
            },
        )));
    }
    w.run_to_completion();
    assert_eq!(*order.borrow(), vec![0, 1, 2, 3, 4, 5], "FIFO violated");
}

#[test]
fn readers_overlap_writers_do_not() {
    let mut w = lcu_world(MachineConfig::model_a(8), 5);
    let lock = w.mach().alloc().alloc_line();
    for _ in 0..6 {
        w.spawn(Box::new(ScriptProgram::new(vec![
            Action::Acquire {
                lock,
                mode: Mode::Read,
                try_for: None,
            },
            Action::Compute(20_000),
            Action::Release {
                lock,
                mode: Mode::Read,
            },
        ])));
    }
    w.run_to_completion();
    let t_readers = w.mach().now().cycles();
    assert!(
        t_readers < 3 * 20_000,
        "6 readers should overlap: took {t_readers}"
    );

    let mut w = lcu_world(MachineConfig::model_a(8), 5);
    let lock = w.mach().alloc().alloc_line();
    for _ in 0..6 {
        w.spawn(Box::new(ScriptProgram::new(vec![
            Action::Acquire {
                lock,
                mode: Mode::Write,
                try_for: None,
            },
            Action::Compute(20_000),
            Action::Release {
                lock,
                mode: Mode::Write,
            },
        ])));
    }
    w.run_to_completion();
    assert!(w.mach().now().cycles() >= 6 * 20_000);
}

#[test]
fn read_write_mix_is_exclusion_safe_and_complete() {
    // The machine's checker panics on violations; completion proves no
    // deadlock / lost wakeups across the mixed protocol paths.
    for seed in 0..5 {
        let mut w = lcu_world(MachineConfig::model_a(16), 100 + seed);
        let lock = w.mach().alloc().alloc_line();
        let counter = w.mach().alloc().alloc_line();
        let mut writes_expected = 0u64;
        let mut progs = Vec::new();
        for t in 0..16 {
            // Deterministic per-thread write ratio spread.
            let pct = [0, 10, 25, 50, 75, 100][t % 6] as u32;
            progs.push(CsLoop::new(lock, counter, 15, pct));
            let _ = &mut writes_expected;
        }
        for p in progs {
            w.spawn(Box::new(p));
        }
        w.run_to_completion();
        // Counter increments = number of write-mode CSs actually executed;
        // verify against the thread stats (writers counted at grant).
        let total_acquires: u64 = (0..16)
            .map(|i| w.mach().thread_stats(ThreadId(i)).acquires)
            .sum();
        assert_eq!(total_acquires, 16 * 15);
    }
}

#[test]
fn writers_behind_readers_make_progress() {
    // Readers keep re-acquiring; a writer must still get in (fairness /
    // no reader starvation of writers).
    let mut w = lcu_world(MachineConfig::model_a(8), 6);
    let lock = w.mach().alloc().alloc_line();
    let counter = w.mach().alloc().alloc_line();
    for _ in 0..6 {
        w.spawn(Box::new(CsLoop::new(lock, counter, 40, 0))); // pure readers
    }
    w.spawn(Box::new(CsLoop::new(lock, counter, 10, 100))); // one writer
    w.run_to_completion();
    assert_eq!(w.mach().mem_peek(counter), 10);
}

#[test]
fn trylock_fails_under_hold_and_lock_stays_usable() {
    let mut w = lcu_world(MachineConfig::model_a(4), 7);
    let lock = w.mach().alloc().alloc_line();
    let result = Rc::new(RefCell::new(None));
    let r2 = result.clone();
    // Holder keeps the lock for 80k cycles.
    w.spawn(Box::new(ScriptProgram::new(vec![
        Action::Acquire {
            lock,
            mode: Mode::Write,
            try_for: None,
        },
        Action::Compute(80_000),
        Action::Release {
            lock,
            mode: Mode::Write,
        },
    ])));
    // Trylock with a 5k budget must fail, then a blocking acquire works.
    let mut stage = 0;
    w.spawn(Box::new(locksim_machine::testing::FnProgram(
        move |_: &mut Ctx<'_>, outcome: Outcome| {
            stage += 1;
            match stage {
                1 => Action::Compute(2_000),
                2 => Action::Acquire {
                    lock,
                    mode: Mode::Write,
                    try_for: Some(5_000),
                },
                3 => {
                    *r2.borrow_mut() = Some(outcome);
                    Action::Acquire {
                        lock,
                        mode: Mode::Write,
                        try_for: None,
                    }
                }
                4 => Action::Release {
                    lock,
                    mode: Mode::Write,
                },
                _ => Action::Done,
            }
        },
    )));
    w.run_to_completion();
    assert_eq!(*result.borrow(), Some(Outcome::Failed));
    let c = w.report_counters();
    assert_eq!(c.get("locks_failed"), 1);
    assert_eq!(c.get("locks_granted"), 2);
}

#[test]
fn trylock_succeeds_on_free_lock() {
    let mut w = lcu_world(MachineConfig::model_a(4), 8);
    let lock = w.mach().alloc().alloc_line();
    w.spawn(Box::new(ScriptProgram::new(vec![
        Action::Acquire {
            lock,
            mode: Mode::Write,
            try_for: Some(10_000),
        },
        Action::Compute(10),
        Action::Release {
            lock,
            mode: Mode::Write,
        },
    ])));
    w.run_to_completion();
    assert_eq!(w.report_counters().get("locks_granted"), 1);
}

#[test]
fn migration_while_waiting_still_acquires() {
    let mut w = lcu_world(MachineConfig::model_a(8), 9);
    let lock = w.mach().alloc().alloc_line();
    // Holder occupies the lock for a while.
    w.spawn(Box::new(ScriptProgram::new(vec![
        Action::Acquire {
            lock,
            mode: Mode::Write,
            try_for: None,
        },
        Action::Compute(60_000),
        Action::Release {
            lock,
            mode: Mode::Write,
        },
    ])));
    // Waiter requests, then is migrated while spinning.
    w.spawn(Box::new(ScriptProgram::new(vec![
        Action::Compute(1_000),
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
    // Let the waiter enqueue, then migrate it to a distant core.
    w.run_for(Some(Time::from_cycles(20_000)));
    assert!(w.migrate(ThreadId(1), 5));
    w.run_to_completion();
    assert_eq!(w.report_counters().get("locks_granted"), 2);
}

#[test]
fn migration_while_holding_releases_remotely() {
    let mut w = lcu_world(MachineConfig::model_a(8), 10);
    let lock = w.mach().alloc().alloc_line();
    // A queue must exist behind the holder for the remote-release
    // forwarding to matter.
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
        Action::Compute(10),
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
    // Migrate the holder mid-critical-section.
    w.run_for(Some(Time::from_cycles(20_000)));
    assert!(w.migrate(ThreadId(0), 6));
    w.run_to_completion();
    let c = w.report_counters();
    assert_eq!(c.get("locks_granted"), 2);
    assert!(
        c.get("lcu_remote_release_sent") >= 1,
        "expected a remote release, counters: {c:?}"
    );
}

#[test]
fn tiny_lcu_overflow_readers_preserve_exclusion() {
    // 2 ordinary entries per LCU, every thread takes many distinct read
    // locks and holds them, forcing overflow-mode grants. The checker
    // validates exclusion; a final writer on each lock validates draining.
    let mut cfg = MachineConfig::model_a(4);
    cfg.lcu_entries = 2;
    let mut w = World::new(cfg, Box::new(LcuBackend::new()), 11);
    let locks: Vec<Addr> = (0..6).map(|_| w.mach().alloc().alloc_line()).collect();
    // Each of 3 threads read-acquires all 6 locks, holds, then releases.
    for _ in 0..3 {
        let mut script = Vec::new();
        for &l in &locks {
            script.push(Action::Acquire {
                lock: l,
                mode: Mode::Read,
                try_for: None,
            });
        }
        script.push(Action::Compute(5_000));
        for &l in &locks {
            script.push(Action::Release {
                lock: l,
                mode: Mode::Read,
            });
        }
        w.spawn(Box::new(ScriptProgram::new(script)));
    }
    // A writer takes each lock after the readers.
    let mut script = Vec::new();
    script.push(Action::Compute(1_000));
    for &l in &locks {
        script.push(Action::Acquire {
            lock: l,
            mode: Mode::Write,
            try_for: None,
        });
        script.push(Action::Compute(10));
        script.push(Action::Release {
            lock: l,
            mode: Mode::Write,
        });
    }
    w.spawn(Box::new(ScriptProgram::new(script)));
    w.run_to_completion();
    let c = w.report_counters();
    assert_eq!(c.get("locks_granted"), 3 * 6 + 6);
}

#[test]
fn lrt_eviction_to_memory_table_is_correct() {
    // Shrink the LRT so live locks spill to the memory-backed overflow
    // table; everything must still complete correctly.
    let mut cfg = MachineConfig::model_a(4);
    cfg.lrt_entries = 4;
    cfg.lrt_assoc = 2;
    let mut w = World::new(cfg, Box::new(LcuBackend::new()), 12);
    let locks: Vec<Addr> = (0..24).map(|_| w.mach().alloc().alloc_line()).collect();
    for t in 0..4u64 {
        let mut script = vec![Action::Compute(t * 97)];
        // Each thread locks six distinct locks (held simultaneously so the
        // LRT entries stay live), then releases.
        let mine: Vec<Addr> = locks[(t as usize * 6)..(t as usize * 6 + 6)].to_vec();
        for &l in &mine {
            script.push(Action::Acquire {
                lock: l,
                mode: Mode::Write,
                try_for: None,
            });
        }
        script.push(Action::Compute(2_000));
        for &l in &mine {
            script.push(Action::Release {
                lock: l,
                mode: Mode::Write,
            });
        }
        w.spawn(Box::new(ScriptProgram::new(script)));
    }
    w.run_to_completion();
    let c = w.report_counters();
    assert_eq!(c.get("locks_granted"), 24);
    assert!(c.get("lrt_evictions") > 0, "expected LRT pressure: {c:?}");
}

#[test]
fn oversubscribed_lcu_queueing_completes() {
    // More threads than cores with a contended lock: preemptions interact
    // with grant timeouts; the run must complete with the right counter.
    let mut cfg = MachineConfig::model_a(4);
    cfg.quantum = 20_000;
    let mut w = World::new(cfg, Box::new(LcuBackend::new()), 13);
    let lock = w.mach().alloc().alloc_line();
    let counter = w.mach().alloc().alloc_line();
    const N: u32 = 10;
    for _ in 0..10 {
        w.spawn(Box::new(CsLoop::new(lock, counter, N, 100)));
    }
    w.run_to_completion();
    assert_eq!(w.mach().mem_peek(counter), 10 * N as u64);
}

#[test]
fn rd_rel_fast_reacquire_counts() {
    // A single reader re-acquiring its lock while an intermediate RD_REL
    // entry is still present takes the fast local path... requires being a
    // non-head reader. Build: two readers hold; the second releases and
    // re-acquires while the first still holds (so the token has not moved).
    let mut w = lcu_world(MachineConfig::model_a(4), 14);
    let lock = w.mach().alloc().alloc_line();
    // Reader A holds for a long time (keeps the head token).
    w.spawn(Box::new(ScriptProgram::new(vec![
        Action::Acquire {
            lock,
            mode: Mode::Read,
            try_for: None,
        },
        Action::Compute(50_000),
        Action::Release {
            lock,
            mode: Mode::Read,
        },
    ])));
    // Reader B: acquire, release, re-acquire quickly.
    w.spawn(Box::new(ScriptProgram::new(vec![
        Action::Compute(2_000),
        Action::Acquire {
            lock,
            mode: Mode::Read,
            try_for: None,
        },
        Action::Compute(100),
        Action::Release {
            lock,
            mode: Mode::Read,
        },
        Action::Compute(100),
        Action::Acquire {
            lock,
            mode: Mode::Read,
            try_for: None,
        },
        Action::Compute(100),
        Action::Release {
            lock,
            mode: Mode::Read,
        },
    ])));
    w.run_to_completion();
    let c = w.report_counters();
    assert!(
        c.get("lcu_fast_reacquires") >= 1,
        "expected a fast RD_REL re-acquire, counters: {c:?}"
    );
}

#[test]
fn determinism_same_seed_same_trace() {
    let run = |seed: u64| {
        let mut w = lcu_world(MachineConfig::model_b(), seed);
        let lock = w.mach().alloc().alloc_line();
        let counter = w.mach().alloc().alloc_line();
        for _ in 0..12 {
            w.spawn(Box::new(CsLoop::new(lock, counter, 10, 50)));
        }
        w.run_to_completion();
        (w.mach().now().cycles(), w.mach().mem_peek(counter))
    };
    assert_eq!(run(99), run(99));
}

#[test]
fn model_b_cross_chip_contention_works() {
    let mut w = lcu_world(MachineConfig::model_b(), 15);
    let lock = w.mach().alloc().alloc_line();
    let counter = w.mach().alloc().alloc_line();
    const N: u32 = 8;
    for _ in 0..32 {
        w.spawn(Box::new(CsLoop::new(lock, counter, N, 100)));
    }
    w.run_to_completion();
    assert_eq!(w.mach().mem_peek(counter), 32 * N as u64);
}

#[test]
fn many_distinct_locks_no_interference() {
    let mut w = lcu_world(MachineConfig::model_a(8), 16);
    let locks: Vec<Addr> = (0..8).map(|_| w.mach().alloc().alloc_line()).collect();
    let counters: Vec<Addr> = (0..8).map(|_| w.mach().alloc().alloc_line()).collect();
    for t in 0..8 {
        w.spawn(Box::new(CsLoop::new(locks[t], counters[t], 20, 100)));
    }
    w.run_to_completion();
    for &c in &counters {
        assert_eq!(w.mach().mem_peek(c), 20);
    }
    // All uncontended: no direct transfers should be needed.
    let c = w.report_counters();
    assert_eq!(c.get("lcu_direct_transfers"), 0);
}
