//! Self-profiling must be invisible to the simulation: host-time spans and
//! counters measure the *host*, and enabling them must not perturb any
//! simulated output. These goldens run the same seeded workload with the
//! profiler off and on and require byte-identical trace exports,
//! dropped-record counts and metrics renderings — the satellite guarantee
//! behind the `--self-profile` flag being safe to use on any figure run.

use locksim::core::LcuBackend;
use locksim::machine::{MachineConfig, World};
use locksim::trace::prof;
use locksim::workloads::{CsThread, IterPool};

/// Same workload as the determinism goldens: a contended 8-core model-A
/// LCU run with tracing on, returning every byte-compared artifact.
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

// The profiler's switch and span data are per-thread, so this test's
// enable window sees only its own runs.
#[test]
fn outputs_are_byte_identical_with_profiling_on_and_off() {
    // Off first: make the baseline before any profiler state exists.
    prof::disable();
    prof::reset();
    let off = traced_run(7);
    assert!(
        prof::take_report().is_empty(),
        "disabled profiler must record no spans or counters"
    );

    prof::enable();
    prof::reset();
    let on = traced_run(7);
    let report = prof::take_report();
    prof::disable();

    assert_eq!(off.0, on.0, "chrome trace must not see the profiler");
    assert_eq!(
        off.1, on.1,
        "dropped-record count must not see the profiler"
    );
    assert_eq!(off.2, on.2, "metrics snapshot must not see the profiler");

    // And the profiled run must actually have profiled: the dispatch spans
    // and the trace/metrics overhead counters fire on this workload.
    assert!(
        !report.is_empty(),
        "profiler collected nothing while enabled"
    );
    assert!(
        report.span("sim/run_for").is_some(),
        "missing run_for span:\n{}",
        report.render_table()
    );
    assert!(
        report.counter("trace/records") > 0,
        "trace overhead counter must tick with tracing enabled"
    );
    assert!(
        report.counter("metrics/hist_samples") > 0,
        "metrics overhead counter must tick"
    );
    let collapsed = report.collapsed();
    assert!(
        collapsed.lines().any(|l| l.starts_with("sim/run_for;")),
        "collapsed stacks must nest under run_for:\n{collapsed}"
    );
}
