//! End-to-end tests of the software lock algorithms on the simulated
//! machine. The machine's exclusion checker panics on violations, so
//! every run is also an invariant check.

use std::cell::RefCell;
use std::rc::Rc;

use locksim_machine::testing::{FnProgram, ScriptProgram};
use locksim_machine::{Action, Addr, Ctx, MachineConfig, Mode, Outcome, Program, World};
use locksim_swlocks::{SwAlg, SwLockBackend};

/// Counter-increment critical-section loop (same shape as the LCU tests).
struct CsLoop {
    lock: Addr,
    counter: Addr,
    iters: u32,
    write_pct: u32,
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
                    self.stage = 2;
                    return Action::Read(self.counter);
                }
                2 => {
                    let Outcome::Value(v) = outcome else {
                        panic!("expected value")
                    };
                    self.val = v;
                    self.stage = 3;
                    return Action::Compute(50);
                }
                3 => {
                    self.stage = 4;
                    if self.is_writer {
                        return Action::Write(self.counter, self.val + 1);
                    }
                    continue;
                }
                4 => {
                    self.stage = 5;
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
                5 => {
                    self.i += 1;
                    self.stage = 0;
                    return Action::Compute(100);
                }
                _ => unreachable!(),
            }
        }
    }
}

fn world(alg: SwAlg, chips: usize, seed: u64) -> World {
    World::new(
        MachineConfig::model_a(chips),
        Box::new(SwLockBackend::new(alg)),
        seed,
    )
}

fn mutex_counter_test(alg: SwAlg) {
    let mut w = world(alg, 8, 1);
    let lock = w.mach().alloc().alloc_line();
    let counter = w.mach().alloc().alloc_line();
    const N: u32 = 20;
    for _ in 0..8 {
        w.spawn(Box::new(CsLoop::new(lock, counter, N, 100)));
    }
    w.run_to_completion();
    assert_eq!(
        w.mach().mem_peek(counter),
        8 * N as u64,
        "{alg:?} lost updates"
    );
}

#[test]
fn tas_mutual_exclusion() {
    mutex_counter_test(SwAlg::Tas);
}

#[test]
fn tatas_mutual_exclusion() {
    mutex_counter_test(SwAlg::Tatas);
}

#[test]
fn mcs_mutual_exclusion() {
    mutex_counter_test(SwAlg::Mcs);
}

#[test]
fn mrsw_write_mutual_exclusion() {
    mutex_counter_test(SwAlg::Mrsw);
}

#[test]
fn posix_mutual_exclusion() {
    mutex_counter_test(SwAlg::Posix);
}

#[test]
fn mrsw_mixed_readers_writers() {
    let mut w = world(SwAlg::Mrsw, 16, 2);
    let lock = w.mach().alloc().alloc_line();
    let counter = w.mach().alloc().alloc_line();
    for t in 0..16 {
        let pct = [0u32, 25, 50, 100][t % 4];
        w.spawn(Box::new(CsLoop::new(lock, counter, 12, pct)));
    }
    w.run_to_completion();
    // Completion without checker panic proves exclusion; every acquire
    // granted exactly once:
    let granted = w.report_counters().get("locks_granted");
    assert_eq!(granted, 16 * 12);
}

#[test]
fn mrsw_readers_overlap() {
    let mut w = world(SwAlg::Mrsw, 8, 3);
    let lock = w.mach().alloc().alloc_line();
    for _ in 0..6 {
        w.spawn(Box::new(ScriptProgram::new(vec![
            Action::Acquire {
                lock,
                mode: Mode::Read,
                try_for: None,
            },
            Action::Compute(30_000),
            Action::Release {
                lock,
                mode: Mode::Read,
            },
        ])));
    }
    w.run_to_completion();
    let t = w.mach().now().cycles();
    assert!(t < 2 * 30_000, "MRSW readers serialized: {t}");
}

#[test]
fn mrsw_writer_eventually_beats_readers() {
    let mut w = world(SwAlg::Mrsw, 8, 4);
    let lock = w.mach().alloc().alloc_line();
    let counter = w.mach().alloc().alloc_line();
    for _ in 0..6 {
        w.spawn(Box::new(CsLoop::new(lock, counter, 30, 0)));
    }
    w.spawn(Box::new(CsLoop::new(lock, counter, 5, 100)));
    w.run_to_completion();
    assert_eq!(w.mach().mem_peek(counter), 5);
}

#[test]
fn mcs_local_spin_beats_tas_messaging_under_contention() {
    // MCS's coherence traffic per handoff is bounded; TAS hammers the
    // directory. Under heavy contention MCS should finish no slower (and
    // usually faster) and with fewer network messages per CS.
    let run = |alg: SwAlg| {
        let mut w = world(alg, 16, 5);
        let lock = w.mach().alloc().alloc_line();
        let counter = w.mach().alloc().alloc_line();
        for _ in 0..16 {
            w.spawn(Box::new(CsLoop::new(lock, counter, 10, 100)));
        }
        w.run_to_completion();
        let msgs =
            w.report_counters().get("net_control_msgs") + w.report_counters().get("net_data_msgs");
        (w.mach().now().cycles(), msgs)
    };
    let (_t_tas, m_tas) = run(SwAlg::Tas);
    let (_t_mcs, m_mcs) = run(SwAlg::Mcs);
    assert!(
        m_mcs < m_tas,
        "MCS should use fewer messages: mcs={m_mcs} tas={m_tas}"
    );
}

#[test]
fn tatas_trylock_fails_and_recovers() {
    let mut w = world(SwAlg::Tatas, 4, 6);
    let lock = w.mach().alloc().alloc_line();
    let result = Rc::new(RefCell::new(None));
    let r2 = result.clone();
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
    let mut stage = 0;
    w.spawn(Box::new(FnProgram(
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
    assert_eq!(w.report_counters().get("locks_granted"), 2);
}

#[test]
fn tas_trylock_success_path() {
    let mut w = world(SwAlg::Tas, 2, 7);
    let lock = w.mach().alloc().alloc_line();
    w.spawn(Box::new(ScriptProgram::new(vec![
        Action::Acquire {
            lock,
            mode: Mode::Write,
            try_for: Some(10_000),
        },
        Action::Release {
            lock,
            mode: Mode::Write,
        },
    ])));
    w.run_to_completion();
    assert_eq!(w.report_counters().get("locks_granted"), 1);
}

#[test]
fn mcs_fifo_order() {
    let order = Rc::new(RefCell::new(Vec::new()));
    let mut w = world(SwAlg::Mcs, 8, 8);
    let lock = w.mach().alloc().alloc_line();
    for i in 0..5u32 {
        let order = order.clone();
        let mut stage = 0;
        w.spawn(Box::new(FnProgram(move |ctx: &mut Ctx<'_>, _: Outcome| {
            stage += 1;
            match stage {
                1 => Action::Compute(1 + i as u64 * 5_000),
                2 => Action::Acquire {
                    lock,
                    mode: Mode::Write,
                    try_for: None,
                },
                3 => {
                    order.borrow_mut().push(ctx.tid.0);
                    Action::Compute(40_000)
                }
                4 => Action::Release {
                    lock,
                    mode: Mode::Write,
                },
                _ => Action::Done,
            }
        })));
    }
    w.run_to_completion();
    assert_eq!(*order.borrow(), vec![0, 1, 2, 3, 4], "MCS FIFO violated");
}

#[test]
fn oversubscribed_spinners_reread_after_reschedule() {
    // 8 threads on 2 cores: handoffs to preempted threads stall until their
    // next quantum, and a spinner preempted mid-wait must read its word
    // again when it is rescheduled. Every algorithm must still complete.
    // For the queue and reader-writer locks the waits outlast the fallback
    // poll and wakes reach spinners off their core, so both paths into
    // `SwState::reread` must have run.
    let table = [
        (SwAlg::Tas, 100, false),
        (SwAlg::Tatas, 100, false),
        (SwAlg::Posix, 100, false),
        (SwAlg::Mcs, 100, true),
        (SwAlg::Mrsw, 50, true),
        (SwAlg::Bravo, 50, true),
        (SwAlg::Fissile, 50, true),
    ];
    for (alg, write_pct, rereads) in table {
        let mut cfg = MachineConfig::model_a(2);
        cfg.quantum = 15_000;
        let mut w = World::new(cfg, Box::new(SwLockBackend::new(alg)), 9);
        let lock = w.mach().alloc().alloc_line();
        let counter = w.mach().alloc().alloc_line();
        for _ in 0..8 {
            w.spawn(Box::new(CsLoop::new(lock, counter, 6, write_pct)));
        }
        w.run_to_completion();
        let c = w.report_counters();
        assert_eq!(c.get("locks_granted"), 8 * 6, "{alg:?}");
        if write_pct == 100 {
            assert_eq!(w.mach().mem_peek(counter), 8 * 6, "{alg:?} lost updates");
        }
        if rereads {
            for name in ["sw_fallback_redrives", "sw_wakes_dropped_offcore"] {
                assert!(c.get(name) > 0, "{alg:?}: no {name}");
            }
        }
    }
}

#[test]
fn posix_parks_under_contention() {
    let mut w = world(SwAlg::Posix, 8, 10);
    let lock = w.mach().alloc().alloc_line();
    let counter = w.mach().alloc().alloc_line();
    for _ in 0..8 {
        w.spawn(Box::new(CsLoop::new(lock, counter, 10, 100)));
    }
    w.run_to_completion();
    assert_eq!(w.mach().mem_peek(counter), 80);
    assert!(
        w.report_counters().get("sw_posix_parks") > 0,
        "adaptive mutex should park under contention"
    );
}

#[test]
fn uncontended_reacquire_is_cache_hit_fast() {
    // Implicit biasing: a TATAS lock repeatedly taken by one thread stays
    // in its L1; each acquire is a couple of L1 hits.
    let mut w = world(SwAlg::Tatas, 4, 11);
    let lock = w.mach().alloc().alloc_line();
    let mut script = Vec::new();
    for _ in 0..50 {
        script.push(Action::Acquire {
            lock,
            mode: Mode::Write,
            try_for: None,
        });
        script.push(Action::Release {
            lock,
            mode: Mode::Write,
        });
    }
    w.spawn(Box::new(ScriptProgram::new(script)));
    w.run_to_completion();
    let total = w.mach().now().cycles();
    // First acquire pays a memory miss (~200cy); the other 49 rounds are
    // L1-resident (< ~40cy each).
    assert!(total < 3_000, "biased reacquire too slow: {total}");
}

#[test]
fn determinism() {
    let run = || {
        let mut w = world(SwAlg::Mrsw, 8, 12);
        let lock = w.mach().alloc().alloc_line();
        let counter = w.mach().alloc().alloc_line();
        for _ in 0..8 {
            w.spawn(Box::new(CsLoop::new(lock, counter, 8, 50)));
        }
        w.run_to_completion();
        w.mach().now().cycles()
    };
    assert_eq!(run(), run());
}

#[test]
#[should_panic(expected = "does not support read locking")]
fn mcs_rejects_read_mode() {
    let mut w = world(SwAlg::Mcs, 2, 13);
    let lock = w.mach().alloc().alloc_line();
    w.spawn(Box::new(ScriptProgram::new(vec![Action::Acquire {
        lock,
        mode: Mode::Read,
        try_for: None,
    }])));
    w.run_to_completion();
}

// ---------------------------------------------------------------------------
// BRAVO (biased reader-writer lock)
// ---------------------------------------------------------------------------

#[test]
fn bravo_write_mutual_exclusion() {
    mutex_counter_test(SwAlg::Bravo);
}

#[test]
fn fissile_write_mutual_exclusion() {
    mutex_counter_test(SwAlg::Fissile);
}

#[test]
fn bravo_mixed_readers_writers() {
    let mut w = world(SwAlg::Bravo, 16, 2);
    let lock = w.mach().alloc().alloc_line();
    let counter = w.mach().alloc().alloc_line();
    for t in 0..16 {
        let pct = [0u32, 25, 50, 100][t % 4];
        w.spawn(Box::new(CsLoop::new(lock, counter, 12, pct)));
    }
    w.run_to_completion();
    let granted = w.report_counters().get("locks_granted");
    assert_eq!(granted, 16 * 12);
}

#[test]
fn fissile_mixed_readers_writers() {
    let mut w = world(SwAlg::Fissile, 16, 2);
    let lock = w.mach().alloc().alloc_line();
    let counter = w.mach().alloc().alloc_line();
    for t in 0..16 {
        let pct = [0u32, 25, 50, 100][t % 4];
        w.spawn(Box::new(CsLoop::new(lock, counter, 12, pct)));
    }
    w.run_to_completion();
    let granted = w.report_counters().get("locks_granted");
    assert_eq!(granted, 16 * 12);
}

#[test]
fn bravo_readers_overlap() {
    let mut w = world(SwAlg::Bravo, 8, 3);
    let lock = w.mach().alloc().alloc_line();
    for _ in 0..6 {
        w.spawn(Box::new(ScriptProgram::new(vec![
            Action::Acquire {
                lock,
                mode: Mode::Read,
                try_for: None,
            },
            Action::Compute(30_000),
            Action::Release {
                lock,
                mode: Mode::Read,
            },
        ])));
    }
    w.run_to_completion();
    let t = w.mach().now().cycles();
    assert!(t < 2 * 30_000, "BRAVO readers serialized: {t}");
}

#[test]
fn fissile_readers_overlap() {
    let mut w = world(SwAlg::Fissile, 8, 3);
    let lock = w.mach().alloc().alloc_line();
    for _ in 0..6 {
        w.spawn(Box::new(ScriptProgram::new(vec![
            Action::Acquire {
                lock,
                mode: Mode::Read,
                try_for: None,
            },
            Action::Compute(30_000),
            Action::Release {
                lock,
                mode: Mode::Read,
            },
        ])));
    }
    w.run_to_completion();
    let t = w.mach().now().cycles();
    assert!(t < 2 * 30_000, "Fissile readers serialized: {t}");
}

#[test]
fn bravo_reader_path_accounting_is_exhaustive() {
    // Every granted read went through exactly one of the two reader paths:
    // the biased fast path (visible-readers table) or the underlying MRSW
    // slow path. A read-heavy mixed run must conserve the accounting.
    let mut w = world(SwAlg::Bravo, 16, 21);
    let lock = w.mach().alloc().alloc_line();
    let counter = w.mach().alloc().alloc_line();
    for _ in 0..16 {
        w.spawn(Box::new(CsLoop::new(lock, counter, 15, 10)));
    }
    w.run_to_completion();
    let c = w.report_counters();
    let fast = c.get("sw_bravo_fast_reads");
    let slow = c.get("sw_bravo_slow_reads");
    let writes = w.mach().mem_peek(counter);
    assert_eq!(
        fast + slow + writes,
        16 * 15,
        "reader paths + writes must cover every grant (fast={fast} slow={slow} writes={writes})"
    );
    assert!(fast > 0, "read-heavy run never took the biased fast path");
}

#[test]
fn bravo_writer_revokes_bias() {
    // Readers first establish bias via the fast path; a writer arriving
    // later must clear the bias flag and scan the visible-readers table.
    let mut w = world(SwAlg::Bravo, 8, 22);
    let lock = w.mach().alloc().alloc_line();
    let counter = w.mach().alloc().alloc_line();
    for _ in 0..6 {
        w.spawn(Box::new(CsLoop::new(lock, counter, 10, 0)));
    }
    // Delayed writer: lets readers publish into the table first.
    w.spawn(Box::new(ScriptProgram::new(vec![
        Action::Compute(2_000),
        Action::Acquire {
            lock,
            mode: Mode::Write,
            try_for: None,
        },
        Action::Write(counter, 777),
        Action::Release {
            lock,
            mode: Mode::Write,
        },
    ])));
    w.run_to_completion();
    let c = w.report_counters();
    assert!(
        c.get("sw_bravo_fast_reads") > 0,
        "readers never used the fast path"
    );
    assert!(
        c.get("sw_bravo_revocations") >= 1,
        "writer never revoked the bias"
    );
}

#[test]
fn bravo_rebias_after_inhibit_window() {
    // After a revocation, readers fall back to the slow path until the
    // adaptive inhibit window (9x the revocation scan time) expires; a
    // slow reader granted after that point re-installs the bias.
    let mut w = world(SwAlg::Bravo, 8, 23);
    let lock = w.mach().alloc().alloc_line();
    let counter = w.mach().alloc().alloc_line();
    // One early writer to revoke the (bootstrapped) bias, then a long
    // stream of readers with think time far exceeding the inhibit window.
    w.spawn(Box::new(CsLoop::new(lock, counter, 1, 100)));
    for _ in 0..4 {
        let mut script = Vec::new();
        for _ in 0..8 {
            script.push(Action::Acquire {
                lock,
                mode: Mode::Read,
                try_for: None,
            });
            script.push(Action::Compute(100));
            script.push(Action::Release {
                lock,
                mode: Mode::Read,
            });
            script.push(Action::Compute(20_000));
        }
        w.spawn(Box::new(ScriptProgram::new(script)));
    }
    w.run_to_completion();
    let c = w.report_counters();
    assert!(
        c.get("sw_bravo_rebias") >= 1,
        "no reader ever re-biased after the inhibit window"
    );
    // Re-biasing must actually restore the fast path for later readers.
    assert!(
        c.get("sw_bravo_fast_reads") > 0,
        "fast path never used after re-bias"
    );
}

// ---------------------------------------------------------------------------
// Fissile (inner MCS core + outer reader aggregation word)
// ---------------------------------------------------------------------------

#[test]
fn fissile_uncontended_reads_take_fast_path() {
    let mut w = world(SwAlg::Fissile, 8, 24);
    let lock = w.mach().alloc().alloc_line();
    for _ in 0..6 {
        let mut script = Vec::new();
        for _ in 0..10 {
            script.push(Action::Acquire {
                lock,
                mode: Mode::Read,
                try_for: None,
            });
            script.push(Action::Compute(50));
            script.push(Action::Release {
                lock,
                mode: Mode::Read,
            });
        }
        w.spawn(Box::new(ScriptProgram::new(script)));
    }
    w.run_to_completion();
    let c = w.report_counters();
    assert_eq!(
        c.get("sw_fissile_read_fast"),
        6 * 10,
        "every read in a writer-free run is a single FetchAdd"
    );
    assert_eq!(c.get("sw_fissile_rollbacks"), 0);
}

#[test]
fn fissile_reader_rolls_back_under_writer() {
    // A writer holding the lock forces arriving readers to undo their
    // optimistic increment and wait for the write bit to clear.
    let mut w = world(SwAlg::Fissile, 4, 25);
    let lock = w.mach().alloc().alloc_line();
    let counter = w.mach().alloc().alloc_line();
    w.spawn(Box::new(ScriptProgram::new(vec![
        Action::Acquire {
            lock,
            mode: Mode::Write,
            try_for: None,
        },
        Action::Compute(30_000),
        Action::Write(counter, 1),
        Action::Release {
            lock,
            mode: Mode::Write,
        },
    ])));
    w.spawn(Box::new(ScriptProgram::new(vec![
        Action::Compute(5_000),
        Action::Acquire {
            lock,
            mode: Mode::Read,
            try_for: None,
        },
        Action::Read(counter),
        Action::Release {
            lock,
            mode: Mode::Read,
        },
    ])));
    w.run_to_completion();
    let c = w.report_counters();
    assert!(
        c.get("sw_fissile_rollbacks") >= 1,
        "reader should have rolled back its optimistic increment"
    );
    assert_eq!(c.get("locks_granted"), 2);
}

#[test]
fn fissile_writer_waits_for_reader_drain() {
    // Readers in their critical section force the queued writer to spin on
    // the aggregation word until the count drains to just the write bit.
    let mut w = world(SwAlg::Fissile, 8, 26);
    let lock = w.mach().alloc().alloc_line();
    for _ in 0..4 {
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
    w.spawn(Box::new(ScriptProgram::new(vec![
        Action::Compute(3_000),
        Action::Acquire {
            lock,
            mode: Mode::Write,
            try_for: None,
        },
        Action::Release {
            lock,
            mode: Mode::Write,
        },
    ])));
    w.run_to_completion();
    let c = w.report_counters();
    assert!(
        c.get("sw_fissile_writer_waits") >= 1,
        "writer should have waited for active readers to drain"
    );
}

#[test]
fn bravo_writer_eventually_beats_readers() {
    let mut w = world(SwAlg::Bravo, 8, 27);
    let lock = w.mach().alloc().alloc_line();
    let counter = w.mach().alloc().alloc_line();
    for _ in 0..6 {
        w.spawn(Box::new(CsLoop::new(lock, counter, 30, 0)));
    }
    w.spawn(Box::new(CsLoop::new(lock, counter, 5, 100)));
    w.run_to_completion();
    assert_eq!(w.mach().mem_peek(counter), 5);
}

#[test]
fn fissile_writer_eventually_beats_readers() {
    let mut w = world(SwAlg::Fissile, 8, 28);
    let lock = w.mach().alloc().alloc_line();
    let counter = w.mach().alloc().alloc_line();
    for _ in 0..6 {
        w.spawn(Box::new(CsLoop::new(lock, counter, 30, 0)));
    }
    w.spawn(Box::new(CsLoop::new(lock, counter, 5, 100)));
    w.run_to_completion();
    assert_eq!(w.mach().mem_peek(counter), 5);
}

#[test]
fn bravo_fissile_determinism() {
    for alg in [SwAlg::Bravo, SwAlg::Fissile] {
        let run = || {
            let mut w = world(alg, 8, 29);
            let lock = w.mach().alloc().alloc_line();
            let counter = w.mach().alloc().alloc_line();
            for _ in 0..8 {
                w.spawn(Box::new(CsLoop::new(lock, counter, 8, 50)));
            }
            w.run_to_completion();
            w.mach().now().cycles()
        };
        assert_eq!(run(), run(), "{alg:?} nondeterministic");
    }
}
