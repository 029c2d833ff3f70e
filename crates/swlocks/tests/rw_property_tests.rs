//! Property tests for the reader-writer software backends (MRSW, BRAVO,
//! Fissile): randomized read/write schedules over random machine shapes
//! must complete with exact grant accounting. The machine's exclusion
//! checker panics on any reader/writer or writer/writer overlap, so every
//! case is also a safety check; `run_to_completion` returning at all is
//! the liveness half (a wedged schedule would spin the watchdog forever).

use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

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

fn rw_schedule_case(alg: SwAlg, chips: usize, scripts: Vec<Vec<(bool, u16, u16)>>) {
    let mut w = World::new(
        MachineConfig::model_a(chips),
        Box::new(SwLockBackend::new(alg)),
        4321,
    );
    let lock = w.mach().alloc().alloc_line();
    let done = Rc::new(RefCell::new(0u64));
    let mut expected = 0;
    for ops in scripts {
        expected += ops.len() as u64;
        spawn_script(&mut w, lock, OpScript { ops }, done.clone());
    }
    w.run_to_completion();
    assert_eq!(*done.borrow(), expected, "{alg:?}: ops lost");
    assert_eq!(
        w.report_counters().get("locks_granted"),
        expected,
        "{alg:?}: grant accounting off"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// BRAVO: random read/write schedules complete with every acquire
    /// granted exactly once (exclusion enforced by the checker throughout).
    #[test]
    fn bravo_random_schedules_complete(
        chips in 2usize..12,
        scripts in proptest::collection::vec(
            proptest::collection::vec(
                (any::<bool>(), 0u16..200, 0u16..200), 1..12),
            1..10),
    ) {
        rw_schedule_case(SwAlg::Bravo, chips, scripts);
    }

    /// Fissile: same property.
    #[test]
    fn fissile_random_schedules_complete(
        chips in 2usize..12,
        scripts in proptest::collection::vec(
            proptest::collection::vec(
                (any::<bool>(), 0u16..200, 0u16..200), 1..12),
            1..10),
    ) {
        rw_schedule_case(SwAlg::Fissile, chips, scripts);
    }

    /// MRSW (the slow-path substrate BRAVO revokes onto) under the same
    /// schedules — a regression net for the shared mrsw/mcs plumbing.
    #[test]
    fn mrsw_random_schedules_complete(
        chips in 2usize..12,
        scripts in proptest::collection::vec(
            proptest::collection::vec(
                (any::<bool>(), 0u16..200, 0u16..200), 1..12),
            1..10),
    ) {
        rw_schedule_case(SwAlg::Mrsw, chips, scripts);
    }
}
