//! `World::fork` golden: a fork runs exactly like its source, on every
//! backend of the harness table.
//!
//! Each backend runs one `CsThread` workload three ways: unforked; as the
//! source, forked at three cycles on the way and then run on; and as each
//! of the three forks. Every run must end with the unforked run's metrics
//! render, series snapshot and per-thread dissections, and running a fork
//! must not take an iteration from the source's shared pool.

use std::rc::Rc;

use locksim::harness::BackendKind;
use locksim::machine::{MachineConfig, ThreadId, World};
use locksim::trace::SeriesSnapshot;
use locksim::workloads::{CsThread, IterPool};

const THREADS: u32 = 6;
const FORK_AT: [u64; 3] = [700, 4_000, 15_000];

/// A 4-core world of `backend` with six threads sharing one pool of 120
/// critical sections (a read-mostly mix where the backend takes reads).
fn world(backend: BackendKind) -> (World, Rc<IterPool>) {
    let cfg = backend.machine_config(MachineConfig::model_a(4));
    let mut w = World::new(cfg, backend.build(), 11);
    w.enable_series(0);
    let lock = w.mach().alloc().alloc_line();
    let data = w.mach().alloc().alloc_line();
    let pool = IterPool::new(120);
    let write_pct = if backend.reads() { 30 } else { 100 };
    for _ in 0..THREADS {
        w.spawn(Box::new(
            CsThread::new(lock, data, Rc::clone(&pool), write_pct)
                .with_shared_data()
                .with_cs_compute(150),
        ));
    }
    (w, pool)
}

/// What a finished run must reproduce.
#[derive(Debug, PartialEq)]
struct End {
    metrics: String,
    series: SeriesSnapshot,
    dissections: Vec<String>,
}

fn end(w: &World) -> End {
    End {
        metrics: w.metrics_snapshot().render(),
        series: w.series_snapshot(),
        dissections: (0..THREADS)
            .map(|t| format!("{:?}", w.thread_dissection(ThreadId(t))))
            .collect(),
    }
}

#[test]
fn a_fork_runs_exactly_like_its_source() {
    for backend in BackendKind::ALL {
        let name = backend.label();
        let (mut plain, _) = world(backend);
        plain.run_to_completion();
        let want = end(&plain);
        assert!(
            plain.mach_ref().now().cycles() > FORK_AT[2],
            "{name}: the run must outlast the last fork point"
        );

        let (mut source, pool) = world(backend);
        let mut forks = Vec::new();
        for at in FORK_AT {
            source.run_until_cycle(at);
            forks.push(source.fork().expect("CsThread worlds fork"));
        }
        let left = pool.remaining();
        assert!(left > 0, "{name}: the pool ran dry before the last fork");
        for (at, mut fork) in FORK_AT.into_iter().zip(forks) {
            fork.run_to_completion();
            assert_eq!(
                pool.remaining(),
                left,
                "{name}: the fork at {at} drew from the source's pool"
            );
            assert_eq!(end(&fork), want, "{name}: the fork at {at} ran differently");
        }
        source.run_to_completion();
        assert_eq!(pool.remaining(), 0);
        assert_eq!(
            end(&source),
            want,
            "{name}: the forked source ran differently"
        );
    }
}
