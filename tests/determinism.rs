//! Golden determinism tests: the simulator is a deterministic function of
//! its seed, so same-seed runs must produce **byte-identical** trace
//! exports and metrics snapshots — the property the observability layer
//! relies on for reproducible figures and diffable traces.

use locksim::core::LcuBackend;
use locksim::harness::{run_microbench, run_stm, BackendKind, ModelSel, StmVariant, StructSel};
use locksim::machine::{MachineConfig, ThreadId, World};
use locksim::workloads::{CsThread, IterPool};

/// Runs a small contended microbenchmark with tracing on; returns the
/// Chrome export, the ring's dropped-record count, and the metrics snapshot
/// rendering.
fn traced_run(seed: u64) -> (String, u64, String) {
    let mut w = World::new(MachineConfig::model_a(8), Box::new(LcuBackend::new()), seed);
    w.enable_trace(1 << 16);
    let lock = w.mach().alloc().alloc_line();
    let data = w.mach().alloc().alloc_line();
    let pool = IterPool::new(200);
    for _ in 0..4 {
        w.spawn(Box::new(CsThread::new(lock, data, pool.clone(), 75)));
    }
    w.run_to_completion();
    let mut chrome = Vec::new();
    w.mach_ref().tracer().export_chrome(&mut chrome).unwrap();
    (
        String::from_utf8(chrome).unwrap(),
        w.mach_ref().tracer().dropped(),
        w.metrics_snapshot().render(),
    )
}

#[test]
fn same_seed_traces_and_metrics_are_byte_identical() {
    let a = traced_run(7);
    let b = traced_run(7);
    assert_eq!(a.0, b.0, "chrome trace export must be deterministic");
    assert_eq!(a.1, b.1, "dropped-record count must be deterministic");
    assert_eq!(a.2, b.2, "metrics snapshot must be deterministic");
    assert!(a.0.len() > 2, "trace export must not be empty");
    assert!(a.2.contains("counter"), "snapshot must carry counters");
}

#[test]
fn different_seeds_diverge() {
    // Seeds drive the write/read mix and scheduling, so the recorded
    // protocol history must differ — guards against the tracer ignoring
    // the run it is attached to.
    let a = traced_run(7);
    let b = traced_run(8);
    assert_ne!(a.0, b.0);
}

#[test]
fn microbench_metrics_snapshot_is_deterministic() {
    let a = run_microbench(ModelSel::A, BackendKind::Lcu, 8, 100, 300, 42);
    let b = run_microbench(ModelSel::A, BackendKind::Lcu, 8, 100, 300, 42);
    assert_eq!(a.total_cycles, b.total_cycles);
    assert_eq!(a.metrics.render(), b.metrics.render());
    assert_eq!(a.metrics.counters.get("locks_granted"), 300);
    assert!(a
        .metrics
        .hists
        .iter()
        .any(|(name, _)| *name == "lock_wait_cycles"));
}

#[test]
fn stm_dissection_is_deterministic_and_populated() {
    let r1 = run_stm(
        ModelSel::A,
        StmVariant::Lcu,
        StructSel::Rb,
        128,
        4,
        20,
        75,
        42,
    );
    let r2 = run_stm(
        ModelSel::A,
        StmVariant::Lcu,
        StructSel::Rb,
        128,
        4,
        20,
        75,
        42,
    );
    assert_eq!(r1.dissection, r2.dissection);
    let d = r1.dissection;
    assert!(d.total() > 0);
    assert!(d.lock_hold > 0, "transactions hold locks: {d:?}");
    assert_eq!(
        d.compute + d.memory + d.lock_acquire + d.lock_hold + d.lock_release + d.preempted,
        d.total()
    );
}

#[test]
fn dissection_buckets_bounded_by_simulated_time() {
    // Oversubscribe 4 threads onto 2 cores: preempted cycles must appear,
    // and every thread's buckets must fit inside the simulated run.
    let mut w = World::new(MachineConfig::model_a(2), Box::new(LcuBackend::new()), 9);
    let lock = w.mach().alloc().alloc_line();
    let data = w.mach().alloc().alloc_line();
    let pool = IterPool::new(120);
    for _ in 0..4 {
        w.spawn(Box::new(CsThread::new(lock, data, pool.clone(), 100)));
    }
    w.run_to_completion();
    let end = w.mach().now().cycles();
    let mut preempted = 0;
    for t in 0..4 {
        let d = w.thread_dissection(ThreadId(t));
        assert!(
            d.total() > 0 && d.total() <= end,
            "thread {t}: {d:?} vs end {end}"
        );
        preempted += d.preempted;
    }
    assert!(preempted > 0, "2 cores / 4 threads must preempt");
}
