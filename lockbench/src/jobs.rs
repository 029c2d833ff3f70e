//! The four workloads, their job lists, and one micro job's execution and
//! correctness gate.
//!
//! Every micro job is a closed loop: each simulated thread starts its next
//! critical section or transaction only after the previous one finished,
//! and the jobs of a repetition run back to back on the calling thread.
//! Sizes are constants of the benchmark, independent of `LOCKSIM_QUICK`.

use std::cell::RefCell;
use std::path::Path;
use std::rc::Rc;
use std::time::{Duration, Instant};

use locksim_core::LcuBackend;
use locksim_machine::{Alloc, LockBackend, MachineConfig, MetricsSnapshot, ThreadId, World};
use locksim_report::RunManifest;
use locksim_ssb::SsbBackend;
use locksim_stm::{
    HashTable, ObjectSpace, Op, RbTree, SkipList, StmKind, TxShared, TxStats, TxStructure, TxThread,
};
use locksim_swlocks::{SwAlg, SwLockBackend};
use locksim_trace::{alloc, prof, QuantileSketch};
use locksim_workloads::{CsThread, IterPool};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// LCU direct transfer against SSB remote retry on one hot lock.
    HwHandoff,
    /// Software RW locks run as coherence state machines on one hot line.
    SwRwlock,
    /// Lock-based and nonblocking STM over three populated structures.
    StmTree,
    /// The chaos fuzz/soak/shrink sweep plus its emit path.
    ChaosSweep,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::HwHandoff,
        Workload::SwRwlock,
        Workload::StmTree,
        Workload::ChaosSweep,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HwHandoff => "hw-handoff",
            Workload::SwRwlock => "sw-rwlock",
            Workload::StmTree => "stm-tree",
            Workload::ChaosSweep => "chaos-sweep",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The `sim_digest` of the workload at `--seed 0`, full scale. A change
    /// that alters simulated behaviour changes it; record the new value
    /// from a `--seed 0` run.
    pub fn seed0_digest(self) -> u64 {
        match self {
            Workload::HwHandoff => 0x2780_0dc1_e43c_a1da,
            Workload::SwRwlock => 0x4873_327d_8934_3b6d,
            Workload::StmTree => 0xda6d_d031_1328_4c99,
            Workload::ChaosSweep => 0x2812_5eda_4757_f374,
        }
    }
}

/// Job-list size: `Full` is the benchmark, `Tiny` a seconds-long version
/// of the same job shapes for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's sizes.
    Full,
    /// One seed per configuration and small jobs.
    Tiny,
}

/// The layer a job's lock backend lives in; the traced pass attributes
/// `backend/*` span time by it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `locksim-core`: the LCU, with or without the FLT.
    Core,
    /// `locksim-ssb`.
    Ssb,
    /// `locksim-swlocks`.
    Swlocks,
}

impl Layer {
    /// The benchmark's root span around every job of this layer.
    pub fn span(self) -> &'static str {
        match self {
            Layer::Core => "lockbench/core",
            Layer::Ssb => "lockbench/ssb",
            Layer::Swlocks => "lockbench/swlocks",
        }
    }
}

/// A lock backend. The benchmark calls the backend crates' constructors
/// itself, not the harness's backend table, so that it brackets them
/// directly and survives a reshuffle of the harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Backend {
    Lcu,
    LcuFlt,
    Ssb,
    Sw(SwAlg),
}

impl Backend {
    fn label(self) -> &'static str {
        match self {
            Backend::Lcu => "lcu",
            Backend::LcuFlt => "lcu+flt",
            Backend::Ssb => "ssb",
            Backend::Sw(alg) => alg.label(),
        }
    }

    fn layer(self) -> Layer {
        match self {
            Backend::Lcu | Backend::LcuFlt => Layer::Core,
            Backend::Ssb => Layer::Ssb,
            Backend::Sw(_) => Layer::Swlocks,
        }
    }

    fn build(self) -> Box<dyn LockBackend> {
        match self {
            Backend::Lcu | Backend::LcuFlt => Box::new(LcuBackend::new()),
            Backend::Ssb => Box::new(SsbBackend::new()),
            Backend::Sw(alg) => Box::new(SwLockBackend::new(alg)),
        }
    }
}

/// The paper's machine models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Model {
    /// 32 single-core chips.
    A,
    /// 4 chips of 8 cores.
    B,
}

/// The paper's STM variants (Figs. 11-12).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StmVariant {
    /// Lock-based OSTM on software MRSW locks.
    SwOnly,
    /// Lock-based OSTM on the LCU.
    Lcu,
    /// Fraser's nonblocking OSTM, ownership as TATAS trylocks.
    Fraser,
}

impl StmVariant {
    fn label(self) -> &'static str {
        match self {
            StmVariant::SwOnly => "sw-only",
            StmVariant::Lcu => "lcu",
            StmVariant::Fraser => "fraser",
        }
    }

    fn backend(self) -> Backend {
        match self {
            StmVariant::SwOnly => Backend::Sw(SwAlg::Mrsw),
            StmVariant::Lcu => Backend::Lcu,
            StmVariant::Fraser => Backend::Sw(SwAlg::Tatas),
        }
    }

    fn kind(self) -> StmKind {
        match self {
            StmVariant::Fraser => StmKind::Fraser,
            _ => StmKind::LockBased,
        }
    }
}

/// A transactional structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Structure {
    Rb,
    Skip,
    Hash,
}

impl Structure {
    fn label(self) -> &'static str {
        match self {
            Structure::Rb => "rb",
            Structure::Skip => "skip",
            Structure::Hash => "hash",
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Shape {
    /// `threads` threads share `total_cs` critical sections on one lock.
    Cs {
        backend: Backend,
        write_pct: u32,
        threads: usize,
        total_cs: u64,
    },
    /// `threads` threads run `txns` transactions each on a structure
    /// populated to half of `key_range`.
    Stm {
        variant: StmVariant,
        structure: Structure,
        key_range: u64,
        threads: usize,
        txns: u32,
        read_pct: u32,
    },
}

/// One simulated run: a shape, a machine model and a World seed.
#[derive(Debug, Clone, Copy)]
pub struct Job {
    shape: Shape,
    model: Model,
    seed: u64,
}

impl Job {
    fn backend(&self) -> Backend {
        match self.shape {
            Shape::Cs { backend, .. } => backend,
            Shape::Stm { variant, .. } => variant.backend(),
        }
    }

    /// The layer of the job's lock backend.
    pub fn layer(&self) -> Layer {
        self.backend().layer()
    }

    /// A unique name, used as the ledger label.
    pub fn label(&self) -> String {
        let model = match self.model {
            Model::A => "A",
            Model::B => "B",
        };
        match self.shape {
            Shape::Cs {
                backend, write_pct, ..
            } => format!("{}-{model}-w{write_pct}-s{}", backend.label(), self.seed),
            Shape::Stm {
                variant, structure, ..
            } => format!(
                "{}-{}-{model}-s{}",
                structure.label(),
                variant.label(),
                self.seed
            ),
        }
    }

    fn machine(&self) -> MachineConfig {
        let mut cfg = match self.model {
            Model::A => MachineConfig::model_a(32),
            Model::B => MachineConfig::model_b(),
        };
        if self.backend() == Backend::LcuFlt {
            cfg.flt_entries = 4;
        }
        cfg
    }
}

/// The job list of a micro workload for base seed `seed`: every
/// configuration runs on World seeds `seed..seed + k`. `ChaosSweep` has no
/// micro jobs; its soak window is set in `bench`.
pub fn jobs(workload: Workload, scale: Scale, seed: u64) -> Vec<Job> {
    let tiny = scale == Scale::Tiny;
    let mut out = Vec::new();
    let mut push = |shape: Shape, model: Model, seeds: u64| {
        for s in seed..seed + seeds {
            out.push(Job {
                shape,
                model,
                seed: s,
            });
        }
    };
    match workload {
        Workload::HwHandoff => {
            let (seeds, total_cs) = if tiny { (1, 300) } else { (16, 3_000) };
            for backend in [Backend::Lcu, Backend::LcuFlt, Backend::Ssb] {
                for model in [Model::A, Model::B] {
                    for write_pct in [100, 50, 0] {
                        let shape = Shape::Cs {
                            backend,
                            write_pct,
                            threads: 32,
                            total_cs,
                        };
                        push(shape, model, seeds);
                    }
                }
            }
        }
        Workload::SwRwlock => {
            let (seeds, total_cs) = if tiny { (1, 150) } else { (12, 1_500) };
            for (alg, write_pct) in [
                (SwAlg::Mcs, 100),
                (SwAlg::Mrsw, 10),
                (SwAlg::Mrsw, 100),
                (SwAlg::Bravo, 10),
                (SwAlg::Fissile, 10),
                (SwAlg::Tatas, 100),
            ] {
                for model in [Model::A, Model::B] {
                    let shape = Shape::Cs {
                        backend: Backend::Sw(alg),
                        write_pct,
                        threads: 16,
                        total_cs,
                    };
                    push(shape, model, seeds);
                }
            }
        }
        Workload::StmTree => {
            let (seeds, txns, shrink) = if tiny { (1, 5, 16) } else { (8, 30, 1) };
            for (structure, key_range) in [
                (Structure::Rb, 1 << 12),
                (Structure::Skip, 1 << 10),
                (Structure::Hash, 1 << 14),
            ] {
                for variant in [StmVariant::SwOnly, StmVariant::Lcu, StmVariant::Fraser] {
                    let shape = Shape::Stm {
                        variant,
                        structure,
                        key_range: key_range / shrink,
                        threads: 16,
                        txns,
                        read_pct: 75,
                    };
                    push(shape, Model::A, seeds);
                }
            }
        }
        Workload::ChaosSweep => {}
    }
    out
}

/// Host time of each phase of one job.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phases {
    /// Backend constructor.
    pub backend: Duration,
    /// `World::new` plus arming the time-series collector.
    pub world: Duration,
    /// STM structure constructors plus population (zero for lock jobs).
    pub populate: Duration,
    /// Allocating the shared lines and spawning every thread.
    pub spawn: Duration,
    /// `run_to_completion`.
    pub run: Duration,
    /// `metrics_snapshot` plus `series_snapshot`.
    pub snapshot: Duration,
    /// Building and writing the run's ledger manifest.
    pub emit: Duration,
}

impl Phases {
    /// Set-up: everything before the run.
    pub fn setup(&self) -> Duration {
        self.backend + self.world + self.populate + self.spawn
    }

    /// The job's host time: set-up, run, snapshot and emit.
    pub fn total(&self) -> Duration {
        self.setup() + self.run + self.snapshot + self.emit
    }
}

/// What one finished job produced.
#[derive(Debug)]
pub struct JobRun {
    /// Host time per phase.
    pub phases: Phases,
    /// Simulated cycle the run ended at.
    pub end_cycle: u64,
    /// End-of-run metrics snapshot.
    pub snap: MetricsSnapshot,
    /// Locks each thread acquired, by thread id.
    pub acquires: Vec<u64>,
    /// Transaction statistics (STM jobs only).
    pub tx: Option<TxStats>,
    /// Heap allocations inside the event loop.
    pub run_allocs: u64,
}

fn timed<T>(slot: &mut Duration, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *slot += t.elapsed();
    out
}

fn populate(structure: Structure, key_range: u64, seed: u64) -> Rc<TxShared> {
    let mut alloc = Alloc::starting_at(1 << 40);
    let mut space = ObjectSpace::new();
    let mut st: Box<dyn TxStructure> = match structure {
        Structure::Rb => Box::new(RbTree::new(&mut space, &mut alloc)),
        Structure::Skip => Box::new(SkipList::new(&mut space, &mut alloc)),
        Structure::Hash => {
            let buckets = (key_range / 4).max(16) as usize;
            Box::new(HashTable::new(&mut space, &mut alloc, buckets))
        }
    };
    // Half capacity with every other key, as the figure harness does.
    let mut lvl_seed = seed | 1;
    for i in 0..key_range / 2 {
        lvl_seed = lvl_seed.rotate_left(7).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        st.perform(
            &mut space,
            &mut alloc,
            Op::Insert((i * 2) % key_range),
            (lvl_seed % 4) + 1,
        );
    }
    TxShared::new(st, space, alloc)
}

/// Runs one job and writes its ledger manifest under `results/runs`
/// (relative to the working directory). Panics when the simulation stalls
/// or the exclusion checker aborts.
pub fn run_job(job: &Job, workload: Workload) -> JobRun {
    let _job = prof::span(job.layer().span());
    let mut ph = Phases::default();
    let setup = prof::span("lockbench/setup");
    let backend = timed(&mut ph.backend, || job.backend().build());
    let mut w = timed(&mut ph.world, || {
        let mut w = World::new(job.machine(), backend, job.seed);
        w.enable_series(0);
        w
    });
    let (threads, stm) = match job.shape {
        Shape::Cs {
            write_pct,
            threads,
            total_cs,
            ..
        } => {
            timed(&mut ph.spawn, || {
                let lock = w.mach().alloc().alloc_line();
                let data = w.mach().alloc().alloc_line();
                let pool = IterPool::new(total_cs);
                for _ in 0..threads {
                    w.spawn(Box::new(CsThread::new(lock, data, pool.clone(), write_pct)));
                }
            });
            (threads, None)
        }
        Shape::Stm {
            variant,
            structure,
            key_range,
            threads,
            txns,
            read_pct,
        } => {
            let shared = timed(&mut ph.populate, || {
                populate(structure, key_range, job.seed)
            });
            let stats = Rc::new(RefCell::new(TxStats::default()));
            timed(&mut ph.spawn, || {
                for _ in 0..threads {
                    w.spawn(Box::new(TxThread::new(
                        variant.kind(),
                        shared.clone(),
                        stats.clone(),
                        txns,
                        read_pct,
                        key_range,
                    )));
                }
            });
            (threads, Some((shared, stats)))
        }
    };
    drop(setup);
    let _ = alloc::take_run_phase();
    {
        let _s = prof::span("lockbench/run");
        timed(&mut ph.run, || w.run_to_completion());
    }
    let run_allocs = alloc::take_run_phase().map_or(0, |a| a.allocs);
    let end_cycle = w.mach_ref().now().cycles();
    let (snap, series) = {
        let _s = prof::span("lockbench/snapshot");
        timed(&mut ph.snapshot, || {
            (w.metrics_snapshot(), w.series_snapshot())
        })
    };
    {
        let _s = prof::span("lockbench/emit");
        timed(&mut ph.emit, || {
            let m = RunManifest::from_snapshot(
                "lockbench",
                &job.label(),
                workload.name(),
                job.seed,
                end_cycle,
                Vec::new(),
                &snap,
                Some(&series),
            );
            locksim_report::write_manifest(Path::new("results/runs"), &m)
                .unwrap_or_else(|e| panic!("write ledger manifest for {}: {e}", job.label()));
        });
    }
    let acquires = (0..threads as u32)
        .map(|t| w.mach_ref().thread_stats(ThreadId(t)).acquires)
        .collect();
    let tx = stm.map(|(shared, stats)| {
        shared.structure.borrow().check_invariants();
        *stats.borrow()
    });
    JobRun {
        phases: ph,
        end_cycle,
        snap,
        acquires,
        tx,
        run_allocs,
    }
}

/// The correctness gate of a finished job: the lock counts agree with the
/// work the job asked for, the event queue dispatched nothing it was not
/// given, and every lock wait landed in the wait sketch.
pub fn check(job: &Job, r: &JobRun) -> Result<(), String> {
    let c = &r.snap.counters;
    let granted = c.get("locks_granted");
    let acquired: u64 = r.acquires.iter().sum();
    if acquired != granted {
        return Err(format!(
            "per-thread acquires sum to {acquired}, locks_granted is {granted}"
        ));
    }
    match (job.shape, r.tx) {
        (Shape::Cs { total_cs, .. }, _) if granted != total_cs => {
            return Err(format!(
                "{granted} locks granted for {total_cs} critical sections"
            ));
        }
        (Shape::Stm { threads, txns, .. }, Some(tx))
            if tx.commits != threads as u64 * u64::from(txns) =>
        {
            return Err(format!(
                "{} commits for {threads} threads x {txns} transactions",
                tx.commits
            ));
        }
        _ => {}
    }
    // Timers and quantum ticks may still be queued when the last thread
    // finishes, and the queue's pending count is not public, so the
    // accounting check is one-sided.
    let (scheduled, events) = (c.get("evq_scheduled"), c.get("evq_events"));
    if events > scheduled {
        return Err(format!(
            "{events} events dispatched but only {scheduled} scheduled"
        ));
    }
    let sketch = r
        .snap
        .sketches
        .iter()
        .find(|(name, _)| name == "lock_wait_cycles")
        .map(|(_, text)| QuantileSketch::from_text(text))
        .transpose()?;
    let sketch_count = sketch.map_or(0, |s| s.count());
    if sketch_count != granted {
        return Err(format!(
            "lock_wait_cycles sketch holds {sketch_count} samples for {granted} grants"
        ));
    }
    Ok(())
}

/// FNV-1a over the simulated outputs of a repetition.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds in bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds in a number.
    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    /// Folds in a length-prefixed string.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// Folds in a finished job: end cycle, every nonzero counter, the
    /// per-thread acquires, and the transaction counts. Quantiles stay out,
    /// so an estimator change does not move the digest; zero counters stay
    /// out, so registering a counter early does not either.
    pub fn job(&mut self, r: &JobRun) {
        self.u64(r.end_cycle);
        for (name, v) in r.snap.counters.iter().filter(|&(_, v)| v != 0) {
            self.str(name);
            self.u64(v);
        }
        self.u64(r.acquires.len() as u64);
        for &a in &r.acquires {
            self.u64(a);
        }
        if let Some(tx) = r.tx {
            self.u64(tx.commits);
            self.u64(tx.aborts);
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_lists_have_the_documented_sizes() {
        let n = |w| jobs(w, Scale::Full, 0).len();
        assert_eq!(n(Workload::HwHandoff), 288);
        assert_eq!(n(Workload::SwRwlock), 144);
        assert_eq!(n(Workload::StmTree), 72);
        assert_eq!(n(Workload::ChaosSweep), 0);
    }

    #[test]
    fn seeds_start_at_the_base_seed() {
        let js = jobs(Workload::HwHandoff, Scale::Full, 7);
        let seeds: Vec<u64> = js.iter().take(16).map(|j| j.seed).collect();
        assert_eq!(seeds, (7..23).collect::<Vec<_>>());
    }

    #[test]
    fn labels_are_unique() {
        for w in Workload::ALL {
            let mut labels: Vec<String> = jobs(w, Scale::Full, 0).iter().map(Job::label).collect();
            let n = labels.len();
            labels.sort();
            labels.dedup();
            assert_eq!(labels.len(), n, "{}", w.name());
        }
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("all"), None);
    }

    #[test]
    fn digest_separates_strings_and_order() {
        let d = |parts: &[&str]| {
            let mut d = Digest::default();
            for p in parts {
                d.str(p);
            }
            d.value()
        };
        assert_ne!(d(&["ab", "c"]), d(&["a", "bc"]));
        assert_ne!(d(&["a", "b"]), d(&["b", "a"]));
        assert_eq!(d(&["a", "b"]), d(&["a", "b"]));
    }
}
