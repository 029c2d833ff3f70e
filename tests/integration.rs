//! Workspace-level integration tests: every lock implementation, the STM,
//! and the workloads exercised through the public facade, with the
//! paper's qualitative results asserted as invariants.

use std::cell::RefCell;
use std::rc::Rc;

use locksim::core::LcuBackend;
use locksim::harness::{
    run_app, run_microbench, run_stm, AppSel, BackendKind, ModelSel, StmVariant, StructSel,
};
use locksim::machine::testing::ScriptProgram;
use locksim::machine::{Action, MachineConfig, Mode, World};
use locksim::stm::{
    ObjectSpace, Op, RbTree, SkipList, StmKind, TxShared, TxStats, TxStructure, TxThread,
};
use locksim::swlocks::SwAlg;

/// A Model A world of `chips` cores running `backend` from the harness
/// table, on the machine configuration the table gives it.
fn world(backend: BackendKind, chips: usize, seed: u64) -> World {
    let cfg = backend.machine_config(MachineConfig::model_a(chips));
    World::new(cfg, backend.build(), seed)
}

/// Every backend provides mutual exclusion for the same workload: the
/// interleaved non-atomic counter update never loses increments.
#[test]
fn every_backend_provides_mutual_exclusion() {
    for backend in BackendKind::ALL {
        let name = backend.label();
        let mut w = world(backend, 8, 9);
        let lock = w.mach().alloc().alloc_line();
        let data = w.mach().alloc().alloc_line();
        for _ in 0..8 {
            let mut script = Vec::new();
            for _ in 0..5 {
                script.push(Action::Acquire {
                    lock,
                    mode: Mode::Write,
                    try_for: None,
                });
                script.push(Action::Read(data));
                script.push(Action::Compute(40));
                // ScriptProgram ignores outcomes, so increment through an
                // atomic instead of read+write (the lock still serializes).
                script.push(Action::Rmw(data, locksim::machine::RmwOp::FetchAdd(1)));
                script.push(Action::Release {
                    lock,
                    mode: Mode::Write,
                });
            }
            w.spawn(Box::new(ScriptProgram::new(script)));
        }
        w.run_to_completion();
        assert_eq!(w.mach().mem_peek(data), 40, "{name} lost updates");
        assert_eq!(
            w.report_counters().get("locks_granted"),
            40,
            "{name} grant count"
        );
        // Two-sided event accounting: every scheduled event was either
        // dispatched or is still queued.
        let snap = w.metrics_snapshot();
        assert_eq!(
            snap.counters.get("evq_scheduled"),
            snap.counters.get("evq_events") + w.mach().events_pending(),
            "{name} event accounting"
        );
        // Every network message crosses at least one link.
        let c = &snap.counters;
        let (links, control, data) = (
            c.get("net_link_msgs"),
            c.get("net_control_msgs"),
            c.get("net_data_msgs"),
        );
        assert!(
            links >= control + data,
            "{name}: {links} link messages < {control} control + {data} data"
        );
        // At quiescence every grant was sampled once and released once.
        for hist in ["lock_wait_cycles", "lock_hold_cycles"] {
            let samples = snap
                .hists
                .iter()
                .find(|(n, _)| *n == hist)
                .map_or(0, |(_, t)| t.count);
            assert_eq!(
                samples,
                snap.counters.get("locks_granted"),
                "{name} {hist} samples"
            );
        }
    }
}

/// Reader-writer capable backends let readers overlap.
#[test]
fn rw_backends_allow_reader_concurrency() {
    for backend in BackendKind::ALL.into_iter().filter(|b| b.reads()) {
        let name = backend.label();
        let mut w = world(backend, 8, 10);
        let lock = w.mach().alloc().alloc_line();
        for _ in 0..6 {
            w.spawn(Box::new(ScriptProgram::new(vec![
                Action::Acquire {
                    lock,
                    mode: Mode::Read,
                    try_for: None,
                },
                Action::Compute(25_000),
                Action::Release {
                    lock,
                    mode: Mode::Read,
                },
            ])));
        }
        w.run_to_completion();
        let t = w.mach().now().cycles();
        assert!(t < 3 * 25_000, "{name}: readers serialized ({t} cycles)");
    }
}

/// Figure 9's headline: the LCU's critical sections are cheaper than the
/// SSB's under mutual exclusion on Model A.
#[test]
fn lcu_beats_ssb_on_model_a_writes() {
    let lcu = run_microbench(ModelSel::A, BackendKind::Lcu, 16, 100, 2_000, 42);
    let ssb = run_microbench(ModelSel::A, BackendKind::Ssb, 16, 100, 2_000, 42);
    assert!(
        lcu.cycles_per_cs < ssb.cycles_per_cs * 0.85,
        "lcu {:.0} !< ssb {:.0}",
        lcu.cycles_per_cs,
        ssb.cycles_per_cs
    );
}

/// Figure 10's headline: the LCU beats the MCS queue lock by more than 2x
/// under contention, and stays graceful past the core count while MCS
/// degrades dramatically.
#[test]
fn lcu_beats_mcs_and_survives_oversubscription() {
    let lcu32 = run_microbench(ModelSel::A, BackendKind::Lcu, 32, 100, 2_000, 42);
    let mcs32 = run_microbench(ModelSel::A, BackendKind::Sw(SwAlg::Mcs), 32, 100, 2_000, 42);
    assert!(mcs32.cycles_per_cs > 2.0 * lcu32.cycles_per_cs);

    let lcu40 = run_microbench(ModelSel::A, BackendKind::Lcu, 40, 100, 2_000, 42);
    let mcs40 = run_microbench(ModelSel::A, BackendKind::Sw(SwAlg::Mcs), 40, 100, 2_000, 42);
    // LCU degrades gracefully (< 2x); MCS hits the preemption anomaly (> 2x).
    assert!(lcu40.cycles_per_cs < 2.0 * lcu32.cycles_per_cs);
    assert!(mcs40.cycles_per_cs > 2.0 * mcs32.cycles_per_cs);
}

/// Figure 12's headline: lock-based STM on the LCU beats software RW locks
/// at 16 threads with 75% read-only transactions.
#[test]
fn stm_lcu_speedup_over_sw_only() {
    let sw = run_stm(
        ModelSel::A,
        StmVariant::SwOnly,
        StructSel::Rb,
        512,
        16,
        20,
        75,
        42,
    );
    let lcu = run_stm(
        ModelSel::A,
        StmVariant::Lcu,
        StructSel::Rb,
        512,
        16,
        20,
        75,
        42,
    );
    let speedup = sw.cycles_per_tx / lcu.cycles_per_tx;
    assert!(speedup > 1.3, "speedup only {speedup:.2}x");
}

/// The STM produces identical logical structure state across lock
/// implementations when the schedule-independent checks are applied.
#[test]
fn stm_structures_stay_consistent_across_backends() {
    for variant in [
        StmVariant::SwOnly,
        StmVariant::Lcu,
        StmVariant::Ssb,
        StmVariant::Fraser,
    ] {
        let mut w = world(variant.backend(), 8, 11);
        let mut alloc = locksim::machine::Alloc::starting_at(1 << 40);
        let mut space = ObjectSpace::new();
        let mut sl = SkipList::new(&mut space, &mut alloc);
        for k in 0..64 {
            sl.perform(&mut space, &mut alloc, Op::Insert(k * 2), (k % 4) + 1);
        }
        let shared = TxShared::new(Box::new(sl), space, alloc);
        let stats = Rc::new(RefCell::new(TxStats::default()));
        for _ in 0..8 {
            w.spawn(Box::new(TxThread::new(
                variant.kind(),
                shared.clone(),
                stats.clone(),
                12,
                50,
                128,
            )));
        }
        w.run_to_completion();
        shared.structure.borrow().check_invariants();
        assert_eq!(stats.borrow().commits, 8 * 12, "{}", variant.label());
    }
}

/// Figure 13's shape: the LCU helps the fine-grain fluidanimate kernel,
/// is neutral-ish on compute-bound cholesky, and loses slightly on the
/// biased radiosity queues.
#[test]
fn application_kernels_follow_paper_pattern() {
    let fluid_posix = run_app(AppSel::Fluidanimate, BackendKind::Sw(SwAlg::Posix), 5);
    let fluid_lcu = run_app(AppSel::Fluidanimate, BackendKind::Lcu, 5);
    assert!(fluid_lcu < fluid_posix, "LCU should win fluidanimate");

    let rad_posix = run_app(AppSel::Radiosity, BackendKind::Sw(SwAlg::Posix), 5);
    let rad_lcu = run_app(AppSel::Radiosity, BackendKind::Lcu, 5);
    assert!(
        rad_lcu as f64 > rad_posix as f64 * 0.95,
        "radiosity should not favour the LCU much"
    );

    let chol_posix = run_app(AppSel::Cholesky, BackendKind::Sw(SwAlg::Posix), 5);
    let chol_lcu = run_app(AppSel::Cholesky, BackendKind::Lcu, 5);
    let ratio = chol_posix as f64 / chol_lcu as f64;
    assert!(
        (0.9..1.15).contains(&ratio),
        "cholesky should be insensitive, ratio {ratio:.2}"
    );
}

/// Whole-stack determinism: an STM run over the facade reproduces its
/// cycle count exactly.
#[test]
fn whole_stack_determinism() {
    let run = || {
        let mut w = World::new(MachineConfig::model_b(), Box::new(LcuBackend::new()), 77);
        let mut alloc = locksim::machine::Alloc::starting_at(1 << 40);
        let mut space = ObjectSpace::new();
        let mut tree = RbTree::new(&mut space, &mut alloc);
        for k in 0..64 {
            tree.perform(&mut space, &mut alloc, Op::Insert(k), 0);
        }
        let shared = TxShared::new(Box::new(tree), space, alloc);
        let stats = Rc::new(RefCell::new(TxStats::default()));
        for _ in 0..12 {
            w.spawn(Box::new(TxThread::new(
                StmKind::LockBased,
                shared.clone(),
                stats.clone(),
                10,
                75,
                128,
            )));
        }
        w.run_to_completion();
        let aborts = stats.borrow().aborts;
        (w.mach().now().cycles(), aborts)
    };
    assert_eq!(run(), run());
}
