//! Experiment executors: one function per workload class.

use std::cell::RefCell;
use std::rc::Rc;

use locksim_core::LcuBackend;
use locksim_machine::{
    Alloc, CycleDissection, IdealBackend, LockBackend, MachineConfig, MetricsSnapshot, ThreadId,
    World,
};
use locksim_ssb::SsbBackend;
use locksim_stm::{
    HashTable, ObjectSpace, Op, RbTree, SkipList, StmKind, TxShared, TxStats, TxStructure, TxThread,
};
use locksim_swlocks::{SwAlg, SwLockBackend};
use locksim_workloads::{
    CholeskyThread, CsThread, FluidConfig, FluidGrid, FluidThread, IterPool, RadiosityThread,
};

use crate::obs;

/// Which machine model to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelSel {
    /// Model A: 32 single-core chips, hierarchical switch.
    A,
    /// Model B: 4×8 multi-CMP.
    B,
}

impl ModelSel {
    /// Builds the configuration.
    pub fn config(self) -> MachineConfig {
        match self {
            ModelSel::A => MachineConfig::model_a(32),
            ModelSel::B => MachineConfig::model_b(),
        }
    }

    /// Label for tables.
    pub fn label(self) -> &'static str {
        match self {
            ModelSel::A => "A",
            ModelSel::B => "B",
        }
    }
}

/// Which lock implementation backs the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// The paper's Lock Control Unit.
    Lcu,
    /// The LCU with the Free Lock Table extension enabled (paper §IV-C
    /// future work; 4 entries per core).
    LcuFlt,
    /// The Synchronization State Buffer baseline.
    Ssb,
    /// A software lock algorithm.
    Sw(SwAlg),
    /// The idealized zero-cost lock (ablation lower bound).
    Ideal,
}

impl BackendKind {
    /// The backend table: every lock implementation once. The fault suite
    /// comes first, in faultsim's row order (see [`BackendKind::fault_suite`]).
    pub const ALL: [BackendKind; 11] = [
        BackendKind::Lcu,
        BackendKind::LcuFlt,
        BackendKind::Ssb,
        BackendKind::Sw(SwAlg::Mcs),
        BackendKind::Sw(SwAlg::Mrsw),
        BackendKind::Sw(SwAlg::Bravo),
        BackendKind::Sw(SwAlg::Fissile),
        BackendKind::Ideal,
        BackendKind::Sw(SwAlg::Tas),
        BackendKind::Sw(SwAlg::Tatas),
        BackendKind::Sw(SwAlg::Posix),
    ];

    /// The fault suite: faultsim's matrix rows and the backends the chaos
    /// fuzzer draws from — the LCU with and without the FLT, the SSB, the
    /// classic software locks MCS and MRSW, and the modern software RW locks
    /// BRAVO and Fissile. No software protocol recovers the paper's
    /// robustness cells; that contrast is why the suite carries them.
    pub fn fault_suite() -> &'static [BackendKind] {
        &Self::ALL[..7]
    }

    /// Resolves a table label (`"lcu"`, `"lcu+flt"`, `"mcs"`, ...).
    pub fn by_label(label: &str) -> Option<BackendKind> {
        Self::ALL.into_iter().find(|b| b.label() == label)
    }

    /// Whether this backend takes read-mode acquires; the writer-only
    /// software locks assert on them.
    pub fn reads(self) -> bool {
        !matches!(
            self,
            BackendKind::Sw(SwAlg::Mcs | SwAlg::Tas | SwAlg::Tatas | SwAlg::Posix)
        )
    }

    /// Whether this backend has a Lock Reservation Table (the LCU family),
    /// the structure an LRT squeeze shrinks.
    pub fn has_lrt(self) -> bool {
        matches!(self, BackendKind::Lcu | BackendKind::LcuFlt)
    }

    /// Instantiates the backend.
    pub fn build(self) -> Box<dyn LockBackend> {
        match self {
            BackendKind::Lcu | BackendKind::LcuFlt => Box::new(LcuBackend::new()),
            BackendKind::Ssb => Box::new(SsbBackend::new()),
            BackendKind::Sw(alg) => Box::new(SwLockBackend::new(alg)),
            BackendKind::Ideal => Box::new(IdealBackend::new()),
        }
    }

    /// The machine configuration this backend runs on, derived from
    /// `base`: the FLT variant enables a 4-entry Free Lock Table per core.
    pub fn machine_config(self, mut base: MachineConfig) -> MachineConfig {
        if self == BackendKind::LcuFlt {
            base.flt_entries = 4;
        }
        base
    }

    /// Label for tables.
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::Lcu => "lcu",
            BackendKind::LcuFlt => "lcu+flt",
            BackendKind::Ssb => "ssb",
            BackendKind::Sw(alg) => alg.label(),
            BackendKind::Ideal => "ideal",
        }
    }
}

/// Result of one microbenchmark run.
#[derive(Debug, Clone)]
pub struct MicroResult {
    /// Average cycles per critical section.
    pub cycles_per_cs: f64,
    /// Total simulated cycles.
    pub total_cycles: u64,
    /// End-of-run metrics registry snapshot (counters merged from the
    /// machine, backend, directories, and network, plus latency histograms).
    pub metrics: MetricsSnapshot,
    /// Per-thread critical sections completed (for fairness analysis).
    pub per_thread_acquires: Vec<u64>,
}

/// Jain's fairness index over per-thread throughput: 1.0 = perfectly fair,
/// 1/n = one thread monopolizes.
pub fn jain_index(xs: &[u64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    let sum: f64 = xs.iter().map(|&x| x as f64).sum();
    let sumsq: f64 = xs.iter().map(|&x| (x as f64) * (x as f64)).sum();
    if sumsq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (xs.len() as f64 * sumsq)
}

/// Runs the lock-transfer microbenchmark (Figures 9/10): `threads` threads
/// hammer one lock for `total_iters` critical sections.
pub fn run_microbench(
    model: ModelSel,
    backend: BackendKind,
    threads: usize,
    write_pct: u32,
    total_iters: u64,
    seed: u64,
) -> MicroResult {
    let cfg = backend.machine_config(model.config());
    let mut w = World::new(cfg, backend.build(), seed);
    obs::arm(&mut w);
    let lock = w.mach().alloc().alloc_line();
    let data = w.mach().alloc().alloc_line();
    let pool = IterPool::new(total_iters);
    for _ in 0..threads {
        w.spawn(Box::new(CsThread::new(lock, data, pool.clone(), write_pct)));
    }
    w.run_to_completion();
    obs::observe(backend.label(), &w);
    let total = w.mach().now().cycles();
    let per_thread_acquires = (0..threads as u32)
        .map(|i| w.mach().thread_stats(ThreadId(i)).acquires)
        .collect();
    MicroResult {
        cycles_per_cs: total as f64 / total_iters as f64,
        total_cycles: total,
        metrics: w.metrics_snapshot(),
        per_thread_acquires,
    }
}

/// Which transactional structure to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StructSel {
    /// Red-black tree with `max_nodes` key range.
    Rb,
    /// Skip list.
    Skip,
    /// Hash table.
    Hash,
}

impl StructSel {
    /// Label for tables.
    pub fn label(self) -> &'static str {
        match self {
            StructSel::Rb => "rb-tree",
            StructSel::Skip => "skip-list",
            StructSel::Hash => "hash-table",
        }
    }
}

/// The paper's STM system variants (Figures 11/12).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StmVariant {
    /// RW-lock OSTM on software MRSW locks ("sw-only").
    SwOnly,
    /// RW-lock OSTM on the LCU.
    Lcu,
    /// RW-lock OSTM on the SSB.
    Ssb,
    /// Fraser's nonblocking OSTM (invisible readers, CAS-style ownership
    /// modelled as TATAS trylocks).
    Fraser,
}

impl StmVariant {
    /// Label used in the paper's plots.
    pub fn label(self) -> &'static str {
        match self {
            StmVariant::SwOnly => "sw-only",
            StmVariant::Lcu => "lcu",
            StmVariant::Ssb => "ssb",
            StmVariant::Fraser => "fraser",
        }
    }

    /// The backend this variant's locks run on.
    pub fn backend(self) -> BackendKind {
        match self {
            StmVariant::SwOnly => BackendKind::Sw(SwAlg::Mrsw),
            StmVariant::Lcu => BackendKind::Lcu,
            StmVariant::Ssb => BackendKind::Ssb,
            StmVariant::Fraser => BackendKind::Sw(SwAlg::Tatas),
        }
    }

    /// The STM flavour this variant runs.
    pub fn kind(self) -> StmKind {
        match self {
            StmVariant::Fraser => StmKind::Fraser,
            _ => StmKind::LockBased,
        }
    }
}

/// Result of one STM run.
#[derive(Debug, Clone, Copy)]
pub struct StmResult {
    /// Mean cycles per committed transaction (wall time / commits).
    pub cycles_per_tx: f64,
    /// Aborts per commit.
    pub abort_ratio: f64,
    /// Machine-level cycle dissection summed over all threads; the six
    /// buckets sum to the aggregate simulated thread lifetime.
    pub dissection: CycleDissection,
}

/// Runs the STM benchmark (Figures 11/12).
#[allow(clippy::too_many_arguments)]
pub fn run_stm(
    model: ModelSel,
    variant: StmVariant,
    structure: StructSel,
    max_nodes: u64,
    threads: usize,
    txns_per_thread: u32,
    read_pct: u32,
    seed: u64,
) -> StmResult {
    let mut w = World::new(model.config(), variant.backend().build(), seed);
    obs::arm(&mut w);
    let mut alloc = Alloc::starting_at(1 << 40);
    let mut space = ObjectSpace::new();
    let mut st: Box<dyn TxStructure> = match structure {
        StructSel::Rb => Box::new(RbTree::new(&mut space, &mut alloc)),
        StructSel::Skip => Box::new(SkipList::new(&mut space, &mut alloc)),
        StructSel::Hash => {
            let buckets = (max_nodes / 4).max(16) as usize;
            Box::new(HashTable::new(&mut space, &mut alloc, buckets))
        }
    };
    // Populate to half capacity with every other key.
    let mut lvl_seed = seed | 1;
    for i in 0..max_nodes / 2 {
        lvl_seed = lvl_seed.rotate_left(7).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        st.perform(
            &mut space,
            &mut alloc,
            Op::Insert((i * 2) % max_nodes),
            (lvl_seed % 4) + 1,
        );
    }
    let shared = TxShared::new(st, space, alloc);
    let stats = Rc::new(RefCell::new(TxStats::default()));
    for _ in 0..threads {
        w.spawn(Box::new(TxThread::new(
            variant.kind(),
            shared.clone(),
            stats.clone(),
            txns_per_thread,
            read_pct,
            max_nodes,
        )));
    }
    w.run_to_completion();
    obs::observe(variant.label(), &w);
    let mut dissection = CycleDissection::default();
    for t in 0..threads as u32 {
        dissection.merge(&w.thread_dissection(ThreadId(t)));
    }
    let s = *stats.borrow();
    let commits = s.commits.max(1) as f64;
    StmResult {
        cycles_per_tx: s.total_cycles as f64 / commits,
        abort_ratio: s.aborts as f64 / commits,
        dissection,
    }
}

/// Which application kernel to run (Figure 13).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppSel {
    /// Fluidanimate-like fine-grain cell updates (32 threads).
    Fluidanimate,
    /// Cholesky-like compute-heavy tasking (16 threads).
    Cholesky,
    /// Radiosity-like work-stealing queues (16 threads).
    Radiosity,
}

impl AppSel {
    /// Label for tables.
    pub fn label(self) -> &'static str {
        match self {
            AppSel::Fluidanimate => "fluidanimate",
            AppSel::Cholesky => "cholesky",
            AppSel::Radiosity => "radiosity",
        }
    }

    /// Thread count the paper uses.
    pub fn threads(self) -> usize {
        match self {
            AppSel::Fluidanimate => 32,
            AppSel::Cholesky | AppSel::Radiosity => 16,
        }
    }
}

/// Runs one application kernel to completion; returns total cycles.
pub fn run_app(app: AppSel, backend: BackendKind, seed: u64) -> u64 {
    let cfg = backend.machine_config(MachineConfig::model_a(32));
    let mut w = World::new(cfg, backend.build(), seed);
    obs::arm(&mut w);
    match app {
        AppSel::Fluidanimate => {
            let cfg = FluidConfig::default();
            // Hardware fine-grain locking affords per-value locks; the
            // software baseline locks whole cells (the paper's original
            // application vs its modified version).
            let fine = !matches!(backend, BackendKind::Sw(_));
            let grid = {
                let alloc = w.mach().alloc();
                FluidGrid::new(alloc, app.threads(), &cfg, fine)
            };
            for t in 0..app.threads() {
                w.spawn(Box::new(FluidThread::new(grid.clone(), cfg.clone(), t)));
            }
        }
        AppSel::Cholesky => {
            let lock = w.mach().alloc().alloc_line();
            let tasks = Rc::new(RefCell::new(600));
            for _ in 0..app.threads() {
                w.spawn(Box::new(CholeskyThread::new(lock, tasks.clone(), 20_000)));
            }
        }
        AppSel::Radiosity => {
            let locks: Rc<Vec<_>> = Rc::new(
                (0..app.threads())
                    .map(|_| w.mach().alloc().alloc_line())
                    .collect(),
            );
            for t in 0..app.threads() {
                w.spawn(Box::new(RadiosityThread::new(locks.clone(), t, 400, 3)));
            }
        }
    }
    w.run_to_completion();
    obs::observe(backend.label(), &w);
    w.mach().now().cycles()
}

/// Scale knob: `LOCKSIM_QUICK=1` shrinks experiments (used by the smoke
/// runs and tests). `0`, empty, `false` and `off` mean off.
pub fn quick() -> bool {
    match std::env::var("LOCKSIM_QUICK") {
        Ok(v) => !matches!(v.as_str(), "" | "0" | "false" | "off"),
        Err(_) => false,
    }
}

/// Picks `full` or `q` depending on [`quick`].
pub fn scaled(full: u64, q: u64) -> u64 {
    if quick() {
        q
    } else {
        full
    }
}

/// Runs `reps` repetitions with distinct seeds, collecting a statistic.
pub fn repeat<F: FnMut(u64) -> f64>(
    reps: u64,
    base_seed: u64,
    mut f: F,
) -> locksim_engine::stats::Running {
    let mut r = locksim_engine::stats::Running::new();
    for i in 0..reps {
        r.add(f(base_seed + i * 7919));
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jain_index_extremes() {
        assert!((jain_index(&[10, 10, 10, 10]) - 1.0).abs() < 1e-12);
        // One thread monopolizes n threads → 1/n.
        assert!((jain_index(&[40, 0, 0, 0]) - 0.25).abs() < 1e-12);
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0, 0]), 1.0);
    }

    #[test]
    fn jain_index_monotone_in_imbalance() {
        let balanced = jain_index(&[10, 10, 10, 10]);
        let skewed = jain_index(&[25, 5, 5, 5]);
        let worse = jain_index(&[37, 1, 1, 1]);
        assert!(balanced > skewed && skewed > worse);
    }

    #[test]
    fn labels_are_distinct() {
        let set: std::collections::BTreeSet<_> =
            BackendKind::ALL.iter().map(|b| b.label()).collect();
        assert_eq!(set.len(), BackendKind::ALL.len());
    }

    #[test]
    fn backend_labels_round_trip() {
        for kind in BackendKind::ALL {
            assert_eq!(BackendKind::by_label(kind.label()), Some(kind));
        }
        assert!(BackendKind::by_label("spinlock").is_none());
    }

    #[test]
    fn scaled_respects_quick_env() {
        // Not set in the test environment by default.
        if !quick() {
            assert_eq!(scaled(100, 10), 100);
        }
    }

    #[test]
    fn repeat_accumulates_reps() {
        let r = repeat(5, 1, |seed| seed as f64);
        assert_eq!(r.count(), 5);
    }

    #[test]
    fn microbench_smoke_on_ideal() {
        let r = run_microbench(ModelSel::A, BackendKind::Ideal, 4, 100, 50, 1);
        assert_eq!(r.per_thread_acquires.iter().sum::<u64>(), 50);
        assert!(r.cycles_per_cs > 0.0);
    }

    #[test]
    fn stm_smoke() {
        let r = run_stm(
            ModelSel::A,
            StmVariant::Lcu,
            StructSel::Hash,
            64,
            2,
            5,
            50,
            1,
        );
        assert!(r.cycles_per_tx > 0.0);
    }

    #[test]
    fn app_smoke() {
        let cycles = run_app(AppSel::Cholesky, BackendKind::Ideal, 1);
        assert!(cycles > 0);
    }
}
