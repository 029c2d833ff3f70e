//! Property tests for the reader-writer software backends (MRSW, BRAVO,
//! Fissile): randomized read/write schedules over random machine shapes
//! must complete with exact grant accounting. The machine's exclusion
//! checker panics on any reader/writer or writer/writer overlap, so every
//! case is also a safety check; `run_to_completion` returning at all is
//! the liveness half (a wedged schedule would spin the watchdog forever).

use std::cell::RefCell;
use std::rc::Rc;

use locksim_engine::RngStream;
use locksim_machine::testing::FnProgram;
use locksim_machine::{Action, Addr, Ctx, MachineConfig, Mode, Outcome, World};
use locksim_swlocks::{SwAlg, SwLockBackend};

/// A per-thread op script: (is_write, cs_cycles, think_cycles).
#[derive(Debug, Clone)]
struct OpScript {
    ops: Vec<(bool, u16, u16)>,
}

fn spawn_script(w: &mut World, lock: Addr, script: OpScript, done: Rc<RefCell<u64>>) {
    let mut i = 0;
    let mut stage = 0u8;
    w.spawn(Box::new(FnProgram(
        #[allow(clippy::never_loop)]
        move |_: &mut Ctx<'_>, _: Outcome| loop {
            if i == script.ops.len() {
                return Action::Done;
            }
            let (wr, cs, think) = script.ops[i];
            let mode = if wr { Mode::Write } else { Mode::Read };
            match stage {
                0 => {
                    stage = 1;
                    return Action::Acquire {
                        lock,
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
                    return Action::Release { lock, mode };
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

/// Runs 24 random read/write schedules over random machine shapes on
/// `alg`, drawn from stream `stream`: every acquire must be granted
/// exactly once (exclusion enforced by the checker throughout).
fn rw_schedules_complete(alg: SwAlg, stream: u64) {
    for case in 0..24 {
        let mut rng = RngStream::new(case, stream);
        let mut w = World::new(
            MachineConfig::model_a(rng.range(2, 12) as usize),
            Box::new(SwLockBackend::new(alg)),
            4321,
        );
        let lock = w.mach().alloc().alloc_line();
        let done = Rc::new(RefCell::new(0u64));
        let mut expected = 0;
        for _ in 0..rng.range(1, 10) {
            let ops: Vec<_> = (0..rng.range(1, 12))
                .map(|_| {
                    let write = rng.chance(0.5);
                    (write, rng.below(200) as u16, rng.below(200) as u16)
                })
                .collect();
            expected += ops.len() as u64;
            spawn_script(&mut w, lock, OpScript { ops }, done.clone());
        }
        w.run_to_completion();
        assert_eq!(*done.borrow(), expected, "{alg:?} case {case}: ops lost");
        assert_eq!(
            w.report_counters().get("locks_granted"),
            expected,
            "{alg:?} case {case}: grant accounting off"
        );
    }
}

/// BRAVO: random read/write schedules complete with every acquire
/// granted exactly once.
#[test]
fn bravo_random_schedules_complete() {
    rw_schedules_complete(SwAlg::Bravo, 15);
}

/// Fissile: same property.
#[test]
fn fissile_random_schedules_complete() {
    rw_schedules_complete(SwAlg::Fissile, 16);
}

/// MRSW (the slow-path substrate BRAVO revokes onto) under the same
/// schedules — a regression net for the shared mrsw/mcs plumbing.
#[test]
fn mrsw_random_schedules_complete() {
    rw_schedules_complete(SwAlg::Mrsw, 17);
}
