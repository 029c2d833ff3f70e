//! The simulated multiprocessor: event dispatch, memory system glue,
//! thread scheduling, and backend services.

use std::collections::VecDeque;

use locksim_coherence::{
    CacheAction, CacheCtrl, CacheId, CacheOpResult, CacheState, CacheToDir, CpuOp, DirAction,
    DirCtrl, DirId, DirToCache, LineAddr,
};
use locksim_engine::stats::Counters;
use locksim_engine::{Cycles, FxHashMap, RngStream, Simulator, Time};
use locksim_topo::{MsgClass, Network, NodeId};
use locksim_trace::{
    prof, Ep as TraceEp, LockStats, MetricsRegistry, MetricsSnapshot, SeriesCollector,
    SeriesSnapshot, StarvationFlag, TraceEvent, TraceKind, Tracer,
};

use crate::addr::{home_of, Addr, Alloc};
use crate::checker::Checker;
use crate::config::MachineConfig;
use crate::lock::{BackendFault, LockBackend, Mode};
use crate::prog::{Action, CoreId, Ctx, Forks, Outcome, Program, RmwOp, ThreadId};

/// A memory operation kind carried through the memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemKind {
    /// Load a word.
    Load,
    /// Store a word.
    Store(u64),
    /// Atomic read-modify-write.
    Rmw(RmwOp),
}

fn cache_state_name(s: CacheState) -> &'static str {
    match s {
        CacheState::I => "I",
        CacheState::S => "S",
        CacheState::E => "E",
        CacheState::M => "M",
    }
}

impl MemKind {
    fn cpu_op(self) -> CpuOp {
        match self {
            MemKind::Load => CpuOp::Load,
            MemKind::Store(_) => CpuOp::Store,
            MemKind::Rmw(_) => CpuOp::Rmw,
        }
    }
}

/// Who issued a memory operation (and therefore who gets the completion).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MemIssuer {
    /// The thread's program; resumed with the resulting outcome.
    Prog(ThreadId),
    /// The lock backend acting for a thread; gets `on_mem_value`.
    Backend(ThreadId),
}

#[derive(Debug, Clone, Copy)]
struct PendingMem {
    addr: Addr,
    kind: MemKind,
    issuer: MemIssuer,
    /// When the op was issued — end-to-end latency lands in the
    /// `mem_op_cycles` histogram at completion.
    issued: Time,
    /// Value effect already applied at the directory's serialization point;
    /// the completion returns this instead of re-sampling memory.
    result: Option<u64>,
}

/// Simulation events.
#[derive(Debug, Clone)]
enum Ev {
    /// Deliver an outcome to a thread's program. The generation tag lets
    /// preemption cancel a stale compute completion.
    Resume(ThreadId, Outcome, u64),
    /// A cache hit's latency elapsed.
    MemDone { cache: usize, line: LineAddr },
    /// A directory→cache message arrives.
    CacheMsg {
        cache: usize,
        line: LineAddr,
        msg: DirToCache,
    },
    /// A cache→directory message arrives.
    DirMsg {
        dir: usize,
        line: LineAddr,
        from: CacheId,
        msg: CacheToDir,
    },
    /// A backend wire message arrives. The token names the message in the
    /// backend's own store; the machine never holds a payload.
    Wire(u64),
    /// A backend timer fires.
    Timer(u64),
    /// End of a scheduling quantum on a core.
    Quantum(usize, u64),
    /// A thread finished its context switch onto a core.
    Installed(ThreadId, usize),
    /// Immediate wake for a watch on a line that was already invalid.
    WakeNow(ThreadId, LineAddr),
    /// A thread voluntarily yields its core (spin-then-yield backends).
    YieldNow(ThreadId),
}

// The event loop moves an `Ev` on every schedule and pop; a variant that
// grows past this inflates every event of every kind.
const _: () = assert!(std::mem::size_of::<Ev>() <= 32);

/// Where a thread's simulated cycles went. Every cycle from spawn to
/// finish lands in exactly one bucket, so the buckets sum to the thread's
/// lifetime (see [`Mach::thread_dissection`]).
///
/// Bucket semantics: `preempted` wins whenever the thread is off-core
/// (ready queue or mid context switch), regardless of what it was doing;
/// on-core cycles inside a critical section (any lock held) are `lock_hold`
/// whether computing or waiting on memory; `lock_acquire` / `lock_release`
/// are on-core waits for the backend to grant / finish a release; `compute`
/// and `memory` are on-core work outside any critical section.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleDissection {
    /// On-core compute outside any critical section.
    pub compute: Cycles,
    /// On-core memory-operation stalls outside any critical section.
    pub memory: Cycles,
    /// On-core cycles waiting for a lock grant.
    pub lock_acquire: Cycles,
    /// On-core cycles inside a critical section (≥1 lock held).
    pub lock_hold: Cycles,
    /// On-core cycles completing a release.
    pub lock_release: Cycles,
    /// Off-core cycles: ready queue, context switches, suspension.
    pub preempted: Cycles,
}

impl CycleDissection {
    /// Sum of all buckets — the thread's accounted lifetime.
    pub fn total(&self) -> Cycles {
        self.compute
            + self.memory
            + self.lock_acquire
            + self.lock_hold
            + self.lock_release
            + self.preempted
    }

    fn add(&mut self, cat: CycleCat, c: Cycles) {
        match cat {
            CycleCat::Compute => self.compute += c,
            CycleCat::Memory => self.memory += c,
            CycleCat::LockAcquire => self.lock_acquire += c,
            CycleCat::LockHold => self.lock_hold += c,
            CycleCat::LockRelease => self.lock_release += c,
            CycleCat::Preempted => self.preempted += c,
        }
    }

    /// Folds another dissection into this one (for machine-wide totals).
    pub fn merge(&mut self, other: &CycleDissection) {
        self.compute += other.compute;
        self.memory += other.memory;
        self.lock_acquire += other.lock_acquire;
        self.lock_hold += other.lock_hold;
        self.lock_release += other.lock_release;
        self.preempted += other.preempted;
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum CycleCat {
    Compute,
    Memory,
    LockAcquire,
    LockHold,
    LockRelease,
    #[default]
    Preempted,
}

/// Per-thread machine-level statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadStats {
    /// Lock acquisitions granted.
    pub acquires: u64,
    /// Trylock attempts that failed.
    pub fails: u64,
    /// Total cycles spent waiting in acquire.
    pub wait_cycles: Cycles,
    /// Times the thread was preempted.
    pub preemptions: u64,
}

#[derive(Clone)]
struct ThreadState {
    core: Option<CoreId>,
    pending_outcome: Option<Outcome>,
    rng: RngStream,
    deferred_mem: VecDeque<(Addr, MemKind)>,
    stats: ThreadStats,
    /// The lock, mode and request time of the outstanding acquire, if any.
    waiting: Option<(Addr, Mode, Time)>,
    /// Number of locks currently held (the exclusion checker records which).
    holding: u32,
    /// Current cycle-accounting category and the time it was entered.
    acct_cat: CycleCat,
    acct_since: Time,
    dissect: CycleDissection,
    finished_at: Option<Time>,
    /// End time of an in-progress Compute action, if any.
    computing: Option<Time>,
    /// Compute cycles left over after a mid-compute preemption.
    compute_left: Cycles,
    /// Bumped to invalidate in-flight Resume events on preemption.
    resume_gen: u64,
    /// Suspended by fault injection: off-core and *not* in the ready queue
    /// until [`World::resume_thread`].
    suspended: bool,
}

impl std::fmt::Debug for ThreadState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadState")
            .field("core", &self.core)
            .field("pending_outcome", &self.pending_outcome)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

/// One thread blocked on a lock acquire — the quiescence probe's view of
/// the waiting graph, consumed by the chaos deadlock detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingWaiter {
    /// The blocked thread.
    pub thread: ThreadId,
    /// The lock it is queued on.
    pub lock: Addr,
    /// True for a write-mode acquire.
    pub write: bool,
    /// True when the waiter is suspended by fault injection (exempt from
    /// deadlock verdicts: it cannot take a grant by design).
    pub suspended: bool,
}

/// A backend-visible network endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ep {
    /// The LCU / cache side of a core.
    Core(usize),
    /// A memory controller (home of directories, LRTs, SSB banks).
    Mem(usize),
}

/// Everything in the simulated machine *except* the lock backend. Backends
/// receive `&mut Mach` and use its services; programs interact only through
/// [`crate::Ctx`] and [`Action`]s.
#[derive(Debug, Clone)]
pub struct Mach {
    cfg: MachineConfig,
    sim: Simulator<Ev>,
    net: Network,
    caches: Vec<CacheCtrl>,
    dirs: Vec<DirCtrl>,
    mem_values: FxHashMap<Addr, u64>,
    threads: Vec<ThreadState>,
    cores: Vec<Option<ThreadId>>,
    ready: VecDeque<ThreadId>,
    pending_mem: FxHashMap<(usize, LineAddr), PendingMem>,
    mem_waitq: FxHashMap<(usize, LineAddr), VecDeque<PendingMem>>,
    watchers: FxHashMap<(usize, LineAddr), Vec<ThreadId>>,
    alloc: Alloc,
    metrics: MetricsRegistry,
    tracer: Tracer,
    lockstat: LockStats,
    series: SeriesCollector,
    /// The one reader-writer exclusion checker: every backend's grants and
    /// releases pass through it at the same two points, so any protocol
    /// bug that breaks exclusion aborts the run at the violating grant.
    checker: Checker,
    /// Threads with an acquire outstanding right now (feeds the series
    /// queue-depth waterline without scanning the thread table).
    waiting_threads: u64,
    seed: u64,
    next_stream: u64,
    alive: usize,
    quantum_gen: u64,
    quantum_active: bool,
    /// Deterministic wire-delay fault: every `period`-th network message is
    /// delayed by `extra` cycles (fault injection).
    wire_fault: Option<WireFault>,
    /// Backend wire messages sent ([`Mach::send_wire`] calls), reported as
    /// `backend_wire_msgs`.
    wire_msgs: u64,
    /// Reusable scratch for cache-controller outputs: the dispatch loop
    /// takes it, drains it, and puts it back so steady-state coherence
    /// traffic never allocates.
    cache_scratch: Vec<CacheAction>,
    /// Same, for directory-controller outputs.
    dir_scratch: Vec<DirAction>,
    /// Same, for the watcher list `fire_watchers` is waking.
    watch_scratch: Vec<ThreadId>,
}

/// Counter-based message-delay fault (see [`Mach::set_wire_fault`]).
#[derive(Debug, Clone, Copy)]
struct WireFault {
    period: u64,
    extra: Cycles,
    counter: u64,
}

impl Mach {
    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.sim.now()
    }

    /// Machine configuration.
    pub fn cfg(&self) -> &MachineConfig {
        &self.cfg
    }

    /// World RNG seed (recorded in run manifests).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of cores.
    pub fn n_cores(&self) -> usize {
        self.cores.len()
    }

    /// Number of memory controllers.
    pub fn n_mems(&self) -> usize {
        self.dirs.len()
    }

    /// Home memory controller of an address.
    pub fn home_of(&self, a: Addr) -> usize {
        home_of(a.line(), self.dirs.len())
    }

    /// The core thread `t` currently runs on, if scheduled.
    pub fn core_of(&self, t: ThreadId) -> Option<CoreId> {
        self.threads[t.0 as usize].core
    }

    /// Whether thread `t` is currently installed on a core.
    pub fn is_scheduled(&self, t: ThreadId) -> bool {
        self.threads[t.0 as usize].core.is_some()
    }

    /// Whether thread `t` is suspended by fault injection (off-core and not
    /// runnable until [`World::resume_thread`]).
    pub fn is_suspended(&self, t: ThreadId) -> bool {
        self.threads[t.0 as usize].suspended
    }

    /// The lock and mode of thread `t`'s outstanding acquire, if any.
    pub fn waiting_on(&self, t: ThreadId) -> Option<(Addr, Mode)> {
        self.threads[t.0 as usize]
            .waiting
            .map(|(lock, mode, _)| (lock, mode))
    }

    /// Whether thread `t` has run to completion.
    pub fn is_finished(&self, t: ThreadId) -> bool {
        self.threads[t.0 as usize].finished_at.is_some()
    }

    /// Total simulation events dispatched so far — the raw progress probe.
    /// Note that background noise (scheduler quantum ticks, backoff timers)
    /// keeps this moving even in a wedged run; the chaos detector combines
    /// it with lock-protocol progress counters.
    pub fn events_processed(&self) -> u64 {
        self.sim.events_processed()
    }

    /// Total simulation events ever scheduled.
    pub fn events_scheduled(&self) -> u64 {
        self.sim.events_scheduled()
    }

    /// Events scheduled but not yet dispatched. Every scheduled event is
    /// either dispatched or still pending, so
    /// `events_scheduled() == events_processed() + events_pending()`.
    pub fn events_pending(&self) -> u64 {
        self.sim.pending() as u64
    }

    /// Every unfinished thread with an acquire outstanding, in thread order
    /// — the quiescence hook the chaos deadlock detector snapshots when
    /// progress stops.
    pub fn pending_waiters(&self) -> Vec<PendingWaiter> {
        self.threads
            .iter()
            .enumerate()
            .filter(|(_, th)| th.finished_at.is_none())
            .filter_map(|(i, th)| {
                th.waiting.map(|(lock, mode, _)| PendingWaiter {
                    thread: ThreadId(i as u32),
                    lock,
                    write: mode == Mode::Write,
                    suspended: th.suspended,
                })
            })
            .collect()
    }

    /// Threads currently holding `lock`, in thread order — the other half
    /// of the waiting graph for blocking-chain dumps.
    pub fn holders_of(&self, lock: Addr) -> Vec<ThreadId> {
        self.checker.holders(lock)
    }

    /// Number of locks thread `t` currently holds.
    pub fn holding_count(&self, t: ThreadId) -> usize {
        self.threads[t.0 as usize].holding as usize
    }

    /// Installs a deterministic wire-delay fault: every `period`-th network
    /// message (counted machine-wide from this call) is delayed by `extra`
    /// cycles. Replaces any previous fault; `period` of 0 is rejected.
    pub fn set_wire_fault(&mut self, period: u64, extra: Cycles) {
        assert!(period > 0, "wire fault period must be positive");
        self.wire_fault = Some(WireFault {
            period,
            extra,
            counter: 0,
        });
    }

    /// Removes any installed wire-delay fault.
    pub fn clear_wire_fault(&mut self) {
        self.wire_fault = None;
    }

    /// The run's counters: the machine, the lock backend, the directories
    /// and the LRTs all count here.
    #[inline]
    pub fn counters_mut(&mut self) -> &mut Counters {
        self.metrics.counters_mut()
    }

    /// The metrics registry (counters plus latency histograms).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Mutable metrics access for backends recording their own histograms.
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.metrics
    }

    /// The structured event tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Mutable tracer access (enable/disable, export).
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// The per-lock contention statistics (disabled unless
    /// [`World::enable_lockstat`] was called).
    pub fn lockstat(&self) -> &LockStats {
        &self.lockstat
    }

    /// Mutable lockstat access for backends recording protocol-specific
    /// per-lock events.
    pub fn lockstat_mut(&mut self) -> &mut LockStats {
        &mut self.lockstat
    }

    /// Records a marked event (fault injection, oracle firing, ...) on the
    /// time-series at the current simulated time. No-op while the series
    /// collector is disabled.
    #[inline]
    pub fn series_mark(&mut self, kind: &'static str) {
        if self.series.enabled() {
            let now = self.sim.now().cycles();
            self.series.mark(now, kind);
        }
    }

    /// Backend hook: bumps run counter `name` and lock `lock`'s protocol
    /// counter of the same name (the latter a no-op while lockstat is
    /// disabled).
    #[inline]
    pub fn lockstat_bump(&mut self, lock: Addr, name: &'static str) {
        self.metrics.incr(name);
        self.lockstat.bump(lock.0, name);
    }

    /// Records a starvation-watchdog firing: a `starve` trace record plus
    /// the machine-wide `starvation_flags` counter.
    fn note_starvation(&mut self, flag: StarvationFlag) {
        self.metrics.incr("starvation_flags");
        self.series.mark(flag.at, "starvation_flag");
        self.tracer.record(|| TraceEvent {
            t: Time::from_cycles(flag.at),
            ep: TraceEp::Thread(flag.thread),
            kind: TraceKind::Starve {
                lock: flag.lock,
                thread: flag.thread,
                write: flag.write,
                waited: flag.waited,
            },
        });
    }

    /// Records a trace event stamped with the current simulated time. The
    /// closure only runs when tracing is enabled.
    #[inline]
    pub fn trace(&mut self, f: impl FnOnce(Time) -> TraceEvent) {
        let now = self.sim.now();
        self.tracer.record(|| f(now));
    }

    /// Backend hook for LCU/LRT/SSB entry state-change records.
    #[inline]
    pub fn trace_entry_state(&mut self, ep: Ep, lock: Addr, state: &'static str) {
        let now = self.sim.now();
        self.tracer.record(|| TraceEvent {
            t: now,
            ep: match ep {
                Ep::Core(c) => TraceEp::Core(c as u32),
                Ep::Mem(m) => TraceEp::Dir(m as u32),
            },
            kind: TraceKind::EntryState {
                lock: lock.0,
                state,
            },
        });
    }

    /// Flushes the current accounting period of thread `ti` into its
    /// dissection and switches to category `new`.
    fn acct_switch(&mut self, ti: usize, new: CycleCat) {
        let now = self.sim.now();
        let th = &mut self.threads[ti];
        th.dissect
            .add(th.acct_cat, now.saturating_since(th.acct_since));
        th.acct_since = now;
        th.acct_cat = new;
    }

    /// The category of on-core work by thread `ti`: `outside` normally,
    /// but time inside a critical section counts as lock_hold whatever the
    /// instruction mix.
    fn work_cat(&self, ti: usize, outside: CycleCat) -> CycleCat {
        if self.threads[ti].holding == 0 {
            outside
        } else {
            CycleCat::LockHold
        }
    }

    /// Thread `t`'s cycle dissection, accounted up to now (or up to its
    /// finish time if it is done). Buckets sum to the thread's lifetime.
    pub fn thread_dissection(&self, t: ThreadId) -> CycleDissection {
        let th = &self.threads[t.0 as usize];
        let mut d = th.dissect;
        if th.finished_at.is_none() {
            d.add(th.acct_cat, self.sim.now().saturating_since(th.acct_since));
        }
        d
    }

    /// Allocates simulated memory (delegates to [`Alloc`]).
    pub fn alloc(&mut self) -> &mut Alloc {
        &mut self.alloc
    }

    /// Reads a word's current value directly (no timing). For backends that
    /// model hardware units holding their own state, and for tests.
    pub fn mem_peek(&self, a: Addr) -> u64 {
        self.mem_values.get(&a).copied().unwrap_or(0)
    }

    /// Writes a word directly (no timing, no coherence). For initialization
    /// only — using this during a run bypasses the memory model.
    pub fn mem_poke(&mut self, a: Addr, v: u64) {
        self.mem_values.insert(a, v);
    }

    /// A fresh deterministic RNG stream (seeded from the world seed).
    pub fn rng_stream(&mut self) -> RngStream {
        let s = self.next_stream;
        self.next_stream += 1;
        RngStream::new(self.seed, s)
    }

    /// Grants thread `t`'s outstanding acquire after `delay` cycles of
    /// additional processing latency.
    ///
    /// # Panics
    ///
    /// Panics if `t` has no acquire outstanding, or if the grant breaks
    /// reader-writer exclusion (the message carries the lock's recent trace
    /// history and lockstat snapshot).
    pub fn grant_lock(&mut self, t: ThreadId, delay: Cycles) {
        let ti = t.0 as usize;
        let (lock, mode, since) = self.threads[ti]
            .waiting
            .take()
            .expect("grant_lock without outstanding acquire");
        let granted_at = self.sim.now() + delay;
        let wait = granted_at - since;
        self.threads[ti].stats.acquires += 1;
        self.threads[ti].stats.wait_cycles += wait;
        self.metrics.incr("locks_granted");
        self.metrics.observe("lock_wait_cycles", wait);
        self.waiting_threads = self.waiting_threads.saturating_sub(1);
        self.series.on_grant(granted_at.cycles(), wait);
        self.checker
            .on_grant(lock, t, mode, granted_at, &self.tracer, &self.lockstat);
        self.threads[ti].holding += 1;
        self.tracer.record(|| TraceEvent {
            t: granted_at,
            ep: TraceEp::Thread(t.0),
            kind: TraceKind::LockGrant {
                lock: lock.0,
                thread: t.0,
                write: mode == Mode::Write,
                wait,
            },
        });
        if let Some(flag) =
            self.lockstat
                .on_grant(lock.0, t.0, mode == Mode::Write, wait, granted_at.cycles())
        {
            self.note_starvation(flag);
        }
        // The grant ends the acquire period; if the thread is off-core
        // (suspension backends) it stays in `preempted` until rescheduled.
        if self.threads[ti].core.is_some() {
            self.acct_switch(ti, CycleCat::LockHold);
        }
        self.sched_resume(t, Outcome::Granted, delay);
    }

    /// Fails thread `t`'s outstanding trylock after `delay` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `t` has no acquire outstanding.
    pub fn fail_lock(&mut self, t: ThreadId, delay: Cycles) {
        let ti = t.0 as usize;
        let (lock, _, since) = self.threads[ti]
            .waiting
            .take()
            .expect("fail_lock without outstanding acquire");
        self.threads[ti].stats.fails += 1;
        self.threads[ti].stats.wait_cycles += (self.sim.now() + delay) - since;
        self.metrics.incr("locks_failed");
        self.waiting_threads = self.waiting_threads.saturating_sub(1);
        let now = self.sim.now();
        self.tracer.record(|| TraceEvent {
            t: now,
            ep: TraceEp::Thread(t.0),
            kind: TraceKind::LockFail {
                lock: lock.0,
                thread: t.0,
            },
        });
        if let Some(flag) = self.lockstat.on_fail(lock.0, t.0, now.cycles()) {
            self.note_starvation(flag);
        }
        self.sched_resume(t, Outcome::Failed, delay);
    }

    /// Completes thread `t`'s outstanding release after `delay` cycles.
    pub fn complete_release(&mut self, t: ThreadId, delay: Cycles) {
        self.sched_resume(t, Outcome::Completed, delay);
    }

    fn sched_resume(&mut self, t: ThreadId, outcome: Outcome, delay: Cycles) {
        let gen = self.threads[t.0 as usize].resume_gen;
        self.sim.schedule_in(delay, Ev::Resume(t, outcome, gen));
    }

    /// Sends a backend protocol message from `src` to `dst`; `token`
    /// arrives at the backend's [`LockBackend::on_wire`] after network
    /// latency plus `extra` cycles of processing delay. The backend keeps
    /// the message under that token (see [`crate::InFlight`]); each wire
    /// event is delivered exactly once.
    pub fn send_wire(&mut self, src: Ep, dst: Ep, class: MsgClass, extra: Cycles, token: u64) {
        let s = self.ep_node(src);
        let d = self.ep_node(dst);
        let now = self.sim.now();
        let arrival = if s == d {
            now + extra + 1
        } else {
            self.net_send(now + extra, s, d, class)
        };
        self.wire_msgs += 1;
        self.sim.schedule_at(arrival, Ev::Wire(token));
    }

    /// Sends on the network, which counts the message by class, and records
    /// a trace record on the link track. All machine traffic goes through
    /// here so the `net_*` counters and the trace agree by construction.
    fn net_send(&mut self, t0: Time, src: NodeId, dst: NodeId, class: MsgClass) -> Time {
        let t0 = match &mut self.wire_fault {
            Some(f) => {
                f.counter += 1;
                if f.counter % f.period == 0 {
                    self.metrics.incr("wire_fault_delays");
                    t0 + f.extra
                } else {
                    t0
                }
            }
            None => t0,
        };
        self.tracer.record(|| TraceEvent {
            t: t0,
            ep: TraceEp::Link(src.index() as u16, dst.index() as u16),
            kind: TraceKind::MsgSend {
                class: match class {
                    MsgClass::Control => "control",
                    MsgClass::Data => "data",
                },
                from: src.index() as u16,
                to: dst.index() as u16,
            },
        });
        self.net.send(t0, src, dst, class)
    }

    /// Arms a one-shot backend timer; [`LockBackend::on_timer`] receives
    /// `token` after `delay` cycles. Every timer fires exactly once (the
    /// machine never cancels one), and a backend takes a timer's payload
    /// only in `on_timer`, so a backend may keep its timers in a
    /// [`crate::InFlight`] slab and reuse a token once it has fired.
    pub fn set_timer(&mut self, delay: Cycles, token: u64) {
        self.sim.schedule_in(delay, Ev::Timer(token));
    }

    /// Issues a memory operation on behalf of thread `t` from its current
    /// core. Completion arrives at [`LockBackend::on_mem_value`]. If `t` is
    /// preempted, the operation is deferred until it is rescheduled (a
    /// preempted thread executes nothing).
    pub fn backend_mem(&mut self, t: ThreadId, addr: Addr, kind: MemKind) {
        let ti = t.0 as usize;
        match self.threads[ti].core {
            Some(core) => self.issue_mem(core.0 as usize, addr, kind, MemIssuer::Backend(t)),
            None => self.threads[ti].deferred_mem.push_back((addr, kind)),
        }
    }

    /// One-shot watch: when thread `t`'s current core loses `line` to an
    /// invalidation, [`LockBackend::on_line_invalidated`] fires. A watch
    /// requested while `t` is descheduled is dropped — the backend's
    /// `on_thread_scheduled` hook is the place to re-drive spin loops after
    /// a preemption or migration. If the line is already absent from the
    /// core's cache (an invalidation raced with the read that observed the
    /// stale value), the wake fires immediately — the spin loop's next read
    /// would miss and refetch.
    pub fn watch_line(&mut self, t: ThreadId, line: LineAddr) {
        let Some(core) = self.threads[t.0 as usize].core else {
            self.metrics.incr("watches_dropped_descheduled");
            return;
        };
        let core = core.0 as usize;
        if !self.caches[core].state(line).readable() {
            self.metrics.incr("watches_fired_immediately");
            self.sim.schedule_in(0, Ev::WakeNow(t, line));
            return;
        }
        self.watchers.entry((core, line)).or_default().push(t);
    }

    /// Whether runnable threads are waiting for a core — the oversubscribed
    /// regime where a spinning thread should donate its timeslice instead
    /// of burning it (spin-then-yield).
    pub fn has_ready_threads(&self) -> bool {
        !self.ready.is_empty()
    }

    /// Requests that thread `t` yield its core to the next ready thread.
    /// Processed as an event so backend callbacks (which hold only `Mach`)
    /// can trigger a reschedule; a no-op by the time it fires if `t` is
    /// already off-core or no thread is waiting for a core.
    pub fn request_yield(&mut self, t: ThreadId) {
        self.metrics.incr("yield_requests");
        self.sim.schedule_in(0, Ev::YieldNow(t));
    }

    /// Per-thread statistics.
    pub fn thread_stats(&self, t: ThreadId) -> ThreadStats {
        self.threads[t.0 as usize].stats
    }

    /// Number of spawned threads.
    pub fn n_threads(&self) -> usize {
        self.threads.len()
    }

    fn ep_node(&self, ep: Ep) -> NodeId {
        match ep {
            Ep::Core(c) => self.net.core_endpoint(c),
            Ep::Mem(m) => self.net.mem_endpoint(m),
        }
    }

    fn issue_mem(&mut self, cache: usize, addr: Addr, kind: MemKind, issuer: MemIssuer) {
        let line = addr.line();
        let key = (cache, line);
        let pm = PendingMem {
            addr,
            kind,
            issuer,
            issued: self.sim.now(),
            result: None,
        };
        if self.pending_mem.contains_key(&key) {
            self.mem_waitq.entry(key).or_default().push_back(pm);
            return;
        }
        self.start_mem(cache, pm);
    }

    fn start_mem(&mut self, cache: usize, pm: PendingMem) {
        let line = pm.addr.line();
        let key = (cache, line);
        let prev = self.pending_mem.insert(key, pm);
        debug_assert!(prev.is_none(), "mem op clobbered at {key:?}");
        let rmw_extra = match pm.kind {
            MemKind::Rmw(_) => self.cfg.rmw_latency,
            _ => 0,
        };
        match self.caches[cache].cpu_op(line, pm.kind.cpu_op()) {
            CacheOpResult::Hit => {
                let l1 = self.cfg.l1_latency + rmw_extra;
                self.sim.schedule_in(l1, Ev::MemDone { cache, line });
            }
            CacheOpResult::Miss(req) => {
                let home = home_of(line, self.dirs.len());
                let src = self.net.core_endpoint(cache);
                let dst = self.net.mem_endpoint(home);
                let t0 = self.sim.now() + self.cfg.l1_latency + rmw_extra;
                let arrival = self.net_send(t0, src, dst, MsgClass::Control);
                self.sim.schedule_at(
                    arrival,
                    Ev::DirMsg {
                        dir: home,
                        line,
                        from: CacheId(cache as u32),
                        msg: CacheToDir::Req(req),
                    },
                );
            }
        }
    }

    /// Applies the value semantics of a completed memory op; returns the
    /// outcome value (loaded / pre-RMW value; 0 for stores).
    fn apply_mem(&mut self, pm: PendingMem) -> u64 {
        match pm.kind {
            MemKind::Load => self.mem_peek(pm.addr),
            MemKind::Store(v) => {
                self.mem_values.insert(pm.addr, v);
                0
            }
            MemKind::Rmw(op) => {
                let old = self.mem_peek(pm.addr);
                self.mem_values.insert(pm.addr, op.apply(old));
                old
            }
        }
    }
}

/// Exit status of [`World::run_for`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunExit {
    /// Every spawned thread finished.
    AllFinished,
    /// The time limit was reached with work remaining.
    TimeLimit,
    /// No events remain but threads are still alive (deadlock) — only
    /// returned by [`World::run_for`]; [`World::run_to_completion`] panics.
    Stalled,
}

/// The complete simulated machine: [`Mach`] plus the lock backend.
///
/// # Example
///
/// ```
/// use locksim_machine::{testing::ScriptProgram, Action, IdealBackend, MachineConfig, World};
///
/// let mut w = World::new(MachineConfig::model_a(2), Box::new(IdealBackend::new()), 1);
/// let a = w.mach().alloc().alloc_line();
/// w.spawn(Box::new(ScriptProgram::new(vec![
///     Action::Write(a, 7),
///     Action::Compute(100),
/// ])));
/// w.run_to_completion();
/// assert_eq!(w.mach().mem_peek(a), 7);
/// ```
pub struct World {
    mach: Mach,
    backend: Box<dyn LockBackend>,
    /// Each thread's program, indexed by thread id.
    programs: Vec<Box<dyn Program>>,
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("backend", &self.backend.name())
            .field("now", &self.mach.now())
            .field("threads", &self.mach.threads.len())
            .finish_non_exhaustive()
    }
}

impl World {
    /// Builds a machine from `cfg` with the given lock backend and master
    /// RNG seed.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` has more than 64 cores: the directory records each
    /// line's sharers as a 64-bit mask, one bit per cache.
    pub fn new(cfg: MachineConfig, backend: Box<dyn LockBackend>, seed: u64) -> Self {
        assert!(
            cfg.n_cores() <= 64,
            "a machine has at most 64 caches (the directory's sharer mask), got {} cores",
            cfg.n_cores()
        );
        let net = cfg.build_network();
        let caches = (0..cfg.n_cores())
            .map(|i| CacheCtrl::new(CacheId(i as u32)))
            .collect();
        let dirs = (0..cfg.n_mems())
            .map(|i| DirCtrl::new(DirId(i as u32)))
            .collect();
        let n_cores = cfg.n_cores();
        World {
            mach: Mach {
                cfg,
                sim: Simulator::new(),
                net,
                caches,
                dirs,
                mem_values: FxHashMap::default(),
                threads: Vec::new(),
                cores: vec![None; n_cores],
                ready: VecDeque::new(),
                pending_mem: FxHashMap::default(),
                mem_waitq: FxHashMap::default(),
                watchers: FxHashMap::default(),
                alloc: Alloc::new(),
                metrics: MetricsRegistry::new(),
                tracer: Tracer::new(),
                lockstat: LockStats::new(),
                series: SeriesCollector::new(),
                checker: Checker::new(),
                waiting_threads: 0,
                seed,
                next_stream: 0,
                alive: 0,
                quantum_gen: 0,
                quantum_active: false,
                wire_fault: None,
                wire_msgs: 0,
                cache_scratch: Vec::new(),
                dir_scratch: Vec::new(),
                watch_scratch: Vec::new(),
            },
            backend,
            programs: Vec::new(),
        }
    }

    /// An independent copy of this world: the machine, the backend and
    /// every thread's program, at the same simulated instant. Running the
    /// copy does exactly what running `self` would, and touches nothing of
    /// `self`. Hash maps clone with their bucket layout, so iteration order
    /// and every output follow the source's. `None` when a program cannot
    /// be forked (see [`Program::fork`]).
    pub fn fork(&self) -> Option<World> {
        let mut forks = Forks::default();
        let programs = self
            .programs
            .iter()
            .map(|p| p.fork(&mut forks))
            .collect::<Option<Vec<_>>>()?;
        Some(World {
            mach: self.mach.clone(),
            backend: self.backend.fork(),
            programs,
        })
    }

    /// Starts recording a bounded structured event trace (newest records
    /// win once the bound is hit). See [`Mach::tracer`] for export and the
    /// `locksim-trace` crate for the record schema.
    pub fn enable_trace(&mut self, cap: usize) {
        self.mach.tracer.enable(cap);
    }

    /// Starts collecting per-lock contention statistics; `watchdog_cycles`
    /// additionally arms the starvation watchdog, which flags (as `starve`
    /// trace records, the `starvation_flags` counter, and report entries)
    /// any wait exceeding that many cycles.
    pub fn enable_lockstat(&mut self, watchdog_cycles: Option<u64>) {
        self.mach.lockstat.enable(watchdog_cycles);
    }

    /// Starts windowed time-series collection (per-window grant
    /// throughput, wait-latency sketch, queue-depth waterline, and event
    /// marks). `window` is the initial width in simulated cycles; 0 picks
    /// the default. Memory stays bounded: the width doubles (merging
    /// windows pairwise) when a run outgrows the cap.
    pub fn enable_series(&mut self, window: u64) {
        self.mach.series.enable(window);
    }

    /// Deterministic export of the collected time-series (empty when
    /// [`World::enable_series`] was never called).
    pub fn series_snapshot(&self) -> SeriesSnapshot {
        self.mach.series.snapshot()
    }

    /// The collected per-lock statistics.
    pub fn lockstat(&self) -> &LockStats {
        self.mach.lockstat()
    }

    /// Access to machine state (allocation, peeking, stats).
    pub fn mach(&mut self) -> &mut Mach {
        &mut self.mach
    }

    /// Immutable machine access.
    pub fn mach_ref(&self) -> &Mach {
        &self.mach
    }

    /// Every counter of [`World::metrics_snapshot`]: the run's registry
    /// plus the network and event-queue counts derived at snapshot time.
    pub fn report_counters(&self) -> Counters {
        self.metrics_snapshot().counters
    }

    /// End-of-run metrics: the run's counters (machine, lock backend,
    /// directories and LRTs all count into one registry) plus the
    /// network-derived and event-queue counters, and all latency
    /// histograms. The rendering of this snapshot is deterministic for a
    /// given seed.
    ///
    /// # Panics
    ///
    /// Panics if the links carried fewer messages than the network sent:
    /// every message crosses at least one link. Panics if the event queue
    /// scheduled a different number of events than it dispatched plus
    /// still holds. Panics unless `locks_granted` and `locks_failed` equal
    /// the threads' own grant and failure counts, the `lock_wait_cycles`
    /// sketch holds one sample per `locks_granted` and `lock_hold_cycles`
    /// at most that many (a hold is sampled at the release of a granted
    /// lock). Once every thread has finished, panics if any lock is still
    /// held: per lock, grants must equal releases.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.mach.metrics.snapshot();
        let net = &mut snap.counters;
        net.add("net_queue_delay_cycles", self.mach.net.total_queue_delay());
        let (mut busy, mut msgs) = (0u64, 0u64);
        for l in self.mach.net.link_stats() {
            busy += l.busy_cycles;
            msgs += l.messages;
        }
        net.add("net_link_busy_cycles", busy);
        net.add("net_link_msgs", msgs);
        let control = self.mach.net.messages(MsgClass::Control);
        let data = self.mach.net.messages(MsgClass::Data);
        assert!(
            msgs >= control + data,
            "net_link_msgs {msgs} < net_control_msgs {control} + net_data_msgs {data}"
        );
        // Counted outside the registry; like a registry counter never
        // bumped, one that never moved has no entry.
        for (name, n) in [
            ("net_control_msgs", control),
            ("net_data_msgs", data),
            ("backend_wire_msgs", self.mach.wire_msgs),
        ] {
            if n > 0 {
                net.add(name, n);
            }
        }
        // Event-queue telemetry: all simulation-derived, so deterministic
        // for a given seed like every other counter here.
        let (events, scheduled) = (
            self.mach.sim.events_processed(),
            self.mach.sim.events_scheduled(),
        );
        let pending = self.mach.events_pending();
        assert!(
            scheduled == events + pending,
            "evq_scheduled {scheduled} != evq_events {events} + pending {pending}"
        );
        net.add("evq_events", events);
        net.add("evq_scheduled", scheduled);
        net.add("evq_peak_pending", self.mach.sim.peak_pending() as u64);
        let (granted, failed) = (
            snap.counters.get("locks_granted"),
            snap.counters.get("locks_failed"),
        );
        let (acquires, fails) = self.mach.threads.iter().fold((0, 0), |(a, f), th| {
            (a + th.stats.acquires, f + th.stats.fails)
        });
        assert!(
            (granted, failed) == (acquires, fails),
            "locks_granted {granted} / locks_failed {failed} != \
             per-thread acquires {acquires} / fails {fails}"
        );
        if self.mach.alive == 0 {
            if let Some((lock, holder)) = self.mach.checker.any_held() {
                panic!("every thread finished, but {holder:?} still holds {lock}");
            }
        }
        let samples = |name| self.mach.metrics.hist(name).map_or(0, |h| h.count());
        let (waits, holds) = (samples("lock_wait_cycles"), samples("lock_hold_cycles"));
        assert!(
            waits == granted,
            "lock_wait_cycles count {waits} != locks_granted {granted}"
        );
        assert!(
            holds <= granted,
            "lock_hold_cycles count {holds} > locks_granted {granted}"
        );
        snap
    }

    /// Thread `t`'s cycle dissection (see [`CycleDissection`]).
    pub fn thread_dissection(&self, t: ThreadId) -> CycleDissection {
        self.mach.thread_dissection(t)
    }

    /// Spawns a thread running `prog`. Threads are installed on free cores
    /// in spawn order; excess threads wait in the ready queue and the
    /// scheduler starts time-slicing.
    pub fn spawn(&mut self, prog: Box<dyn Program>) -> ThreadId {
        let tid = ThreadId(self.mach.threads.len() as u32);
        let rng = self.mach.rng_stream();
        let now = self.mach.sim.now();
        self.programs.push(prog);
        self.mach.threads.push(ThreadState {
            core: None,
            pending_outcome: Some(Outcome::Started),
            rng,
            deferred_mem: VecDeque::new(),
            stats: ThreadStats::default(),
            waiting: None,
            computing: None,
            compute_left: 0,
            resume_gen: 0,
            suspended: false,
            holding: 0,
            acct_cat: CycleCat::default(),
            acct_since: now,
            dissect: CycleDissection::default(),
            finished_at: None,
        });
        self.mach.alive += 1;
        if let Some(core) = self.mach.cores.iter().position(|c| c.is_none()) {
            self.install(tid, core, 0);
        } else {
            self.mach.ready.push_back(tid);
        }
        self.maybe_activate_quantum();
        tid
    }

    /// Migrates thread `t` to core `to`. A thread running there is
    /// preempted to the ready queue, and the core `t` leaves goes to the
    /// next ready thread. Works on both running and ready threads. Returns
    /// `false` (no-op) if the thread is suspended, finished, or already on
    /// `to`.
    pub fn migrate(&mut self, t: ThreadId, to: usize) -> bool {
        let ti = t.0 as usize;
        let th = &self.mach.threads[ti];
        if th.suspended || th.finished_at.is_some() || th.core == Some(CoreId(to as u32)) {
            return false;
        }
        if let Some(victim) = self.mach.cores[to] {
            self.mach.threads[victim.0 as usize].stats.preemptions += 1;
            self.deschedule(victim);
        }
        self.mach.metrics.incr("migrations");
        let from = self.mach.threads[ti].core;
        match from {
            // Unlike a descheduled thread's, the mover's in-flight compute
            // is not banked, so a thread migrated mid-compute keeps
            // computing through its context switch. Banking it changes
            // chaos-sweep results (an open ROADMAP item).
            Some(from) => {
                self.mach.cores[from.0 as usize] = None;
                self.mach.threads[ti].core = None;
                self.backend.on_thread_descheduled(&mut self.mach, t);
                self.mach.acct_switch(ti, CycleCat::Preempted);
            }
            None => self.mach.ready.retain(|&x| x != t),
        }
        self.mach.trace(|now| TraceEvent {
            t: now,
            ep: TraceEp::Thread(t.0),
            kind: TraceKind::SchedMigrate {
                thread: t.0,
                from: from.map_or(u32::MAX, |c| c.0),
                to: to as u32,
            },
        });
        if let Some(from) = from {
            // Possibly with the thread just evicted from `to`.
            self.refill(from.0 as usize);
        }
        self.install(t, to, self.mach.cfg.ctx_switch);
        true
    }

    /// Suspends a thread by fault injection: it leaves its core (or the
    /// ready queue) and will not run again until [`World::resume_thread`].
    /// Unlike a preemption the thread does *not* rejoin the ready queue —
    /// this models a thread the OS has descheduled for an unbounded time,
    /// the robustness regime of the paper's Section 3.5. Returns `false`
    /// (no-op) if the thread is already suspended or finished.
    pub fn suspend(&mut self, t: ThreadId) -> bool {
        let ti = t.0 as usize;
        let th = &self.mach.threads[ti];
        if th.suspended || th.finished_at.is_some() {
            return false;
        }
        let on_core = th.core.is_some();
        self.mach.threads[ti].suspended = true;
        self.mach.metrics.incr("fault_suspensions");
        let core = on_core.then(|| {
            self.mach.threads[ti].stats.preemptions += 1;
            self.deschedule(t)
        });
        self.mach.ready.retain(|&x| x != t);
        if let Some(core) = core {
            self.refill(core);
        }
        true
    }

    /// Resumes a thread suspended by [`World::suspend`]: it is installed on
    /// a free core immediately or rejoins the ready queue. Returns `false`
    /// if the thread is not suspended.
    pub fn resume_thread(&mut self, t: ThreadId) -> bool {
        let ti = t.0 as usize;
        if !self.mach.threads[ti].suspended {
            return false;
        }
        self.mach.threads[ti].suspended = false;
        self.mach.metrics.incr("fault_resumes");
        if let Some(core) = self.mach.cores.iter().position(|c| c.is_none()) {
            self.install(t, core, self.mach.cfg.ctx_switch);
        } else {
            self.mach.ready.push_back(t);
        }
        self.maybe_activate_quantum();
        true
    }

    /// Routes a capacity fault to the lock backend; returns whether the
    /// backend applied it (see [`BackendFault`]).
    pub fn inject_backend_fault(&mut self, fault: BackendFault) -> bool {
        self.backend.on_fault(&mut self.mach, fault)
    }

    /// Runs until simulated time reaches exactly `cycle`, draining every
    /// event scheduled at or before it — the stepping primitive for
    /// exact-cycle fault injection. On [`RunExit::TimeLimit`] and
    /// [`RunExit::Stalled`] the clock is advanced to exactly `cycle` so a
    /// subsequent injection lands at that cycle; [`RunExit::AllFinished`]
    /// leaves the clock at the final event.
    pub fn run_until_cycle(&mut self, cycle: u64) -> RunExit {
        let lim = Time::from_cycles(cycle);
        let exit = self.run_for(Some(lim));
        if exit != RunExit::AllFinished {
            self.mach.sim.advance_to(lim);
        }
        exit
    }

    /// Runs until every thread finishes.
    ///
    /// # Panics
    ///
    /// Panics if the event queue drains while threads are alive (deadlock or
    /// lost wakeup — a simulator or protocol bug).
    pub fn run_to_completion(&mut self) {
        match self.run_for(None) {
            RunExit::AllFinished => {}
            RunExit::Stalled => {
                let blocked: Vec<String> = self
                    .mach
                    .threads
                    .iter()
                    .enumerate()
                    .filter(|(_, th)| th.finished_at.is_none())
                    .map(|(i, th)| format!("t{i}: core={:?} waiting={:?} computing={:?} left={} pending={:?} gen={}", th.core, th.waiting, th.computing, th.compute_left, th.pending_outcome, th.resume_gen))
                    .collect();
                let counters = self.mach.metrics.counters().iter();
                let counters: String = counters.map(|(k, v)| format!("ctr {k} = {v}\n")).collect();
                panic!(
                    "simulation stalled with live threads: {blocked:?}\nbackend state:\n{}{counters}",
                    self.backend.debug_state()
                );
            }
            RunExit::TimeLimit => unreachable!("no limit was set"),
        }
    }

    /// Runs until all threads finish, the event queue drains, or simulated
    /// time passes `limit`.
    pub fn run_for(&mut self, limit: Option<Time>) -> RunExit {
        let _prof = prof::span("sim/run_for");
        // The alloc run-phase window brackets the event loop only, so
        // per-run allocation churn excludes world setup/teardown.
        locksim_trace::alloc::run_phase_start();
        let exit = loop {
            if self.mach.alive == 0 {
                break RunExit::AllFinished;
            }
            if let (Some(lim), Some(next)) = (limit, self.mach.sim.peek_time()) {
                if next > lim {
                    break RunExit::TimeLimit;
                }
            }
            let Some((_, ev)) = self.mach.sim.pop() else {
                break RunExit::Stalled;
            };
            self.dispatch(ev);
        };
        locksim_trace::alloc::run_phase_end();
        exit
    }

    fn dispatch(&mut self, ev: Ev) {
        let _prof = prof::span(match &ev {
            Ev::Resume(..) => "sim/dispatch/resume",
            Ev::MemDone { .. } => "sim/dispatch/mem_done",
            Ev::CacheMsg { .. } => "sim/dispatch/cache_msg",
            Ev::DirMsg { .. } => "sim/dispatch/dir_msg",
            Ev::Wire(..) => "sim/dispatch/wire",
            Ev::Timer(..) => "sim/dispatch/timer",
            Ev::Quantum(..) => "sim/dispatch/quantum",
            Ev::Installed(..) => "sim/dispatch/installed",
            Ev::WakeNow(..) => "sim/dispatch/wake",
            Ev::YieldNow(..) => "sim/dispatch/yield",
        });
        match ev {
            Ev::Resume(t, outcome, gen) => {
                if gen == self.mach.threads[t.0 as usize].resume_gen {
                    self.drive(t, outcome);
                }
            }
            Ev::MemDone { cache, line } => self.complete_mem(cache, line),
            Ev::CacheMsg { cache, line, msg } => {
                // Trace-prep (endpoint lookups, class naming, state reads)
                // only when tracing is on: this is the hottest dispatch arm
                // and the lazy record closure alone doesn't guard work done
                // to build its captures.
                let before = if self.mach.tracer.is_enabled() {
                    let home = home_of(line, self.mach.dirs.len());
                    let from = self.mach.net.mem_endpoint(home).index() as u16;
                    let to = self.mach.net.core_endpoint(cache).index() as u16;
                    let class = match msg {
                        DirToCache::DataS { .. } | DirToCache::DataM => "data",
                        _ => "control",
                    };
                    self.mach.trace(|now| TraceEvent {
                        t: now,
                        ep: TraceEp::Core(cache as u32),
                        kind: TraceKind::MsgRecv { class, from, to },
                    });
                    Some(self.mach.caches[cache].state(line))
                } else {
                    None
                };
                let mut actions = std::mem::take(&mut self.mach.cache_scratch);
                self.mach.caches[cache].handle(line, msg, &mut actions);
                if let Some(b) = before {
                    let a = self.mach.caches[cache].state(line);
                    if a != b {
                        self.mach.trace(|now| TraceEvent {
                            t: now,
                            ep: TraceEp::Core(cache as u32),
                            kind: TraceKind::Coherence {
                                line: line.0,
                                from: cache_state_name(b),
                                to: cache_state_name(a),
                            },
                        });
                    }
                }
                for act in actions.drain(..) {
                    match act {
                        CacheAction::Send(m) => {
                            let home = home_of(line, self.mach.dirs.len());
                            let src = self.mach.net.core_endpoint(cache);
                            let dst = self.mach.net.mem_endpoint(home);
                            let class = match m {
                                CacheToDir::InvAck { dirty: true }
                                | CacheToDir::DowngradeAck { dirty: true } => MsgClass::Data,
                                _ => MsgClass::Control,
                            };
                            let now = self.mach.sim.now();
                            let arrival = self.mach.net_send(now, src, dst, class);
                            self.mach.sim.schedule_at(
                                arrival,
                                Ev::DirMsg {
                                    dir: home,
                                    line,
                                    from: CacheId(cache as u32),
                                    msg: m,
                                },
                            );
                        }
                        CacheAction::CpuDone => self.complete_mem(cache, line),
                        CacheAction::Invalidated => self.fire_watchers(cache, line),
                        CacheAction::Downgraded => {}
                    }
                }
                self.mach.cache_scratch = actions;
            }
            Ev::DirMsg {
                dir,
                line,
                from,
                msg,
            } => {
                // Same guard as the CacheMsg arm: skip endpoint/class prep
                // entirely when tracing is off.
                if self.mach.tracer.is_enabled() {
                    let src = self.mach.net.core_endpoint(from.0 as usize).index() as u16;
                    let dst = self.mach.net.mem_endpoint(dir).index() as u16;
                    let class = match msg {
                        CacheToDir::InvAck { dirty: true }
                        | CacheToDir::DowngradeAck { dirty: true } => "data",
                        _ => "control",
                    };
                    self.mach.trace(|now| TraceEvent {
                        t: now,
                        ep: TraceEp::Dir(dir as u32),
                        kind: TraceKind::MsgRecv {
                            class,
                            from: src,
                            to: dst,
                        },
                    });
                }
                let mut actions = std::mem::take(&mut self.mach.dir_scratch);
                let m = &mut self.mach;
                m.dirs[dir].handle(line, from, msg, &mut actions, m.metrics.counters_mut());
                for act in actions.drain(..) {
                    // A data grant is the transaction's serialization point:
                    // apply the requestor's pending value effect now so that
                    // values linearize in directory order, not in message-
                    // arrival order (grants can be overtaken in the network).
                    if matches!(act.msg, DirToCache::DataS { .. } | DirToCache::DataM) {
                        let key = (act.to.0 as usize, line);
                        if let Some(pm) = self.mach.pending_mem.get(&key).copied() {
                            if pm.result.is_none() {
                                let v = self.mach.apply_mem(pm);
                                if let Some(slot) = self.mach.pending_mem.get_mut(&key) {
                                    slot.result = Some(v);
                                }
                            }
                        }
                    }
                    let delay = self.mach.cfg.dir_latency
                        + if act.dram {
                            self.mach.cfg.dram_latency
                        } else {
                            0
                        };
                    let class = if act.carries_data {
                        MsgClass::Data
                    } else {
                        MsgClass::Control
                    };
                    let src = self.mach.net.mem_endpoint(dir);
                    let dst = self.mach.net.core_endpoint(act.to.0 as usize);
                    let t0 = self.mach.sim.now() + delay;
                    let arrival = self.mach.net_send(t0, src, dst, class);
                    self.mach.sim.schedule_at(
                        arrival,
                        Ev::CacheMsg {
                            cache: act.to.0 as usize,
                            line,
                            msg: act.msg,
                        },
                    );
                }
                self.mach.dir_scratch = actions;
            }
            Ev::Wire(token) => {
                let _prof = prof::span("backend/on_wire");
                self.backend.on_wire(&mut self.mach, token);
            }
            Ev::Timer(token) => {
                self.mach.trace(|now| TraceEvent {
                    t: now,
                    ep: TraceEp::Global,
                    kind: TraceKind::TimerFire { label: "backend" },
                });
                let _prof = prof::span("backend/on_timer");
                self.backend.on_timer(&mut self.mach, token)
            }
            Ev::Quantum(core, gen) => self.quantum_tick(core, gen),
            Ev::Installed(t, core) => self.finish_install(t, core),
            Ev::WakeNow(t, line) => self.backend.on_line_invalidated(&mut self.mach, t, line),
            Ev::YieldNow(t) => self.yield_now(t),
        }
    }

    /// A requested yield fires: hand the core to the next ready thread. By
    /// the time the event is dispatched the requester may already be
    /// off-core (preempted, suspended or finished) or alone (ready queue
    /// drained) — both are no-ops.
    fn yield_now(&mut self, t: ThreadId) {
        let ti = t.0 as usize;
        if self.mach.threads[ti].core.is_none() || self.mach.ready.is_empty() {
            return;
        }
        self.mach.metrics.incr("yields_taken");
        self.mach.threads[ti].stats.preemptions += 1;
        let core = self.deschedule(t);
        self.refill(core);
    }

    fn fire_watchers(&mut self, cache: usize, line: LineAddr) {
        // Swap the watcher list out for the reused scratch vector, so the
        // entry keeps its capacity for the next spin-watch on this line.
        let mut ws = std::mem::take(&mut self.mach.watch_scratch);
        if let Some(v) = self.mach.watchers.get_mut(&(cache, line)) {
            std::mem::swap(v, &mut ws);
        }
        for &t in &ws {
            self.backend.on_line_invalidated(&mut self.mach, t, line);
        }
        ws.clear();
        self.mach.watch_scratch = ws;
    }

    fn complete_mem(&mut self, cache: usize, line: LineAddr) {
        let key = (cache, line);
        let pm = self
            .mach
            .pending_mem
            .remove(&key)
            .expect("completion without pending mem op");
        let value = match pm.result {
            Some(v) => v,
            None => self.mach.apply_mem(pm),
        };
        let served_in = self.mach.sim.now().saturating_since(pm.issued);
        self.mach.metrics.observe("mem_op_cycles", served_in);
        match pm.issuer {
            MemIssuer::Prog(t) => {
                let outcome = match pm.kind {
                    MemKind::Load | MemKind::Rmw(_) => Outcome::Value(value),
                    MemKind::Store(_) => Outcome::Completed,
                };
                self.drive(t, outcome);
            }
            MemIssuer::Backend(t) => self.backend.on_mem_value(&mut self.mach, t, value),
        }
        // Start the next queued op for this (cache, line), if any — unless
        // the completion callback above already issued a fresh op on the
        // same line (the slot is taken again; the queue drains at that
        // op's completion).
        if self.mach.pending_mem.contains_key(&key) {
            return;
        }
        // A drained queue stays in the map, so the next wait on this
        // (cache, line) reuses its buffer.
        if let Some(next) = self
            .mach
            .mem_waitq
            .get_mut(&key)
            .and_then(VecDeque::pop_front)
        {
            self.mach.start_mem(cache, next);
        }
    }

    fn drive(&mut self, t: ThreadId, outcome: Outcome) {
        let ti = t.0 as usize;
        if self.mach.threads[ti].finished_at.is_some() {
            return;
        }
        let Some(core) = self.mach.threads[ti].core else {
            debug_assert!(
                self.mach.threads[ti].pending_outcome.is_none(),
                "thread {ti} already has a stashed outcome"
            );
            self.mach.threads[ti].pending_outcome = Some(outcome);
            return;
        };
        self.mach.threads[ti].computing = None;
        let mut ctx = Ctx {
            now: self.mach.sim.now(),
            tid: t,
            core,
            rng: &mut self.mach.threads[ti].rng,
        };
        let action = self.programs[ti].resume(&mut ctx, outcome);
        self.apply_action(t, core, action);
    }

    fn apply_action(&mut self, t: ThreadId, core: CoreId, action: Action) {
        let ti = t.0 as usize;
        // Cycle-dissection bookkeeping: the action decides what the thread
        // spends its next cycles on.
        match action {
            Action::Compute(c) => {
                let cat = self.mach.work_cat(ti, CycleCat::Compute);
                self.mach.acct_switch(ti, cat);
                self.mach.threads[ti].computing = Some(self.mach.sim.now() + c);
                self.mach.sched_resume(t, Outcome::Completed, c);
            }
            Action::Read(a) => self.prog_mem(t, core, a, MemKind::Load),
            Action::Write(a, v) => self.prog_mem(t, core, a, MemKind::Store(v)),
            Action::Rmw(a, op) => self.prog_mem(t, core, a, MemKind::Rmw(op)),
            Action::Acquire {
                lock,
                mode,
                try_for,
            } => {
                self.mach.acct_switch(ti, CycleCat::LockAcquire);
                let req_at = self.mach.sim.now();
                self.mach.threads[ti].waiting = Some((lock, mode, req_at));
                self.mach.waiting_threads += 1;
                let depth = self.mach.waiting_threads;
                self.mach.series.on_queue_depth(req_at.cycles(), depth);
                self.mach
                    .lockstat
                    .on_request(lock.0, t.0, mode == Mode::Write, req_at.cycles());
                self.mach.trace(|now| TraceEvent {
                    t: now,
                    ep: TraceEp::Thread(t.0),
                    kind: TraceKind::LockRequest {
                        lock: lock.0,
                        thread: t.0,
                        write: mode == Mode::Write,
                    },
                });
                let _prof = prof::span("backend/on_acquire");
                self.backend
                    .on_acquire(&mut self.mach, t, lock, mode, try_for);
            }
            Action::Release { lock, mode } => {
                self.mach.acct_switch(ti, CycleCat::LockRelease);
                self.mach.trace(|now| TraceEvent {
                    t: now,
                    ep: TraceEp::Thread(t.0),
                    kind: TraceKind::LockRelease {
                        lock: lock.0,
                        thread: t.0,
                        write: mode == Mode::Write,
                    },
                });
                // The critical section ends when the thread invokes the
                // release; the backend's release traffic may legitimately
                // race the next owner's grant. The record above goes first,
                // so an abort dump ends with the violating release.
                let m = &mut self.mach;
                let since = m.checker.on_release(lock, t, mode, &m.tracer, &m.lockstat);
                m.threads[ti].holding -= 1;
                let now = m.sim.now();
                let held = now.saturating_since(since);
                m.metrics.observe("lock_hold_cycles", held);
                m.lockstat
                    .on_release(lock.0, t.0, mode == Mode::Write, held, now.cycles());
                let _prof = prof::span("backend/on_release");
                self.backend.on_release(&mut self.mach, t, lock, mode);
            }
            Action::Yield => {
                // A voluntary yield, so not counted as a preemption.
                self.mach.threads[ti].pending_outcome = Some(Outcome::Completed);
                self.deschedule(t);
                self.refill(core.0 as usize);
            }
            Action::Done => {
                self.mach.acct_switch(ti, CycleCat::Preempted);
                self.mach.threads[ti].finished_at = Some(self.mach.sim.now());
                self.mach.threads[ti].core = None;
                self.mach.cores[core.0 as usize] = None;
                self.mach.alive -= 1;
                self.refill(core.0 as usize);
            }
        }
    }

    /// Issues a program's memory op from `core`.
    fn prog_mem(&mut self, t: ThreadId, core: CoreId, a: Addr, kind: MemKind) {
        let ti = t.0 as usize;
        let cat = self.mach.work_cat(ti, CycleCat::Memory);
        self.mach.acct_switch(ti, cat);
        self.mach
            .issue_mem(core.0 as usize, a, kind, MemIssuer::Prog(t));
    }

    /// Takes running thread `t` off its core: banks its in-flight compute,
    /// accounts it as preempted, queues it as ready and tells the backend.
    /// Returns the vacated core for the caller to `refill`. Callers count
    /// the preemption themselves, since a voluntary yield is not one.
    fn deschedule(&mut self, t: ThreadId) -> usize {
        let ti = t.0 as usize;
        let core = self.mach.threads[ti]
            .core
            .expect("descheduling off-core thread");
        self.suspend_compute(t);
        self.mach.acct_switch(ti, CycleCat::Preempted);
        self.mach.trace(|now| TraceEvent {
            t: now,
            ep: TraceEp::Thread(t.0),
            kind: TraceKind::SchedPreempt {
                thread: t.0,
                core: core.0,
            },
        });
        self.mach.cores[core.0 as usize] = None;
        self.mach.threads[ti].core = None;
        self.mach.ready.push_back(t);
        self.backend.on_thread_descheduled(&mut self.mach, t);
        core.0 as usize
    }

    /// Hands free core `core` to the next ready thread, if any.
    fn refill(&mut self, core: usize) {
        if let Some(next) = self.mach.ready.pop_front() {
            self.install(next, core, self.mach.cfg.ctx_switch);
        }
    }

    /// If `t` is mid-Compute, cancels the in-flight completion and banks
    /// the remaining cycles for its next turn on a core.
    fn suspend_compute(&mut self, t: ThreadId) {
        let ti = t.0 as usize;
        if let Some(end) = self.mach.threads[ti].computing.take() {
            let now = self.mach.sim.now();
            // The in-flight completion is cancelled by the generation bump,
            // so always bank at least one cycle: a preemption landing on the
            // compute's final cycle must still deliver its completion.
            self.mach.threads[ti].compute_left = end.saturating_since(now).max(1);
            self.mach.threads[ti].resume_gen += 1;
        }
    }

    fn install(&mut self, t: ThreadId, core: usize, delay: Cycles) {
        let ti = t.0 as usize;
        debug_assert!(self.mach.cores[core].is_none());
        debug_assert!(self.mach.threads[ti].finished_at.is_none());
        self.mach.cores[core] = Some(t);
        self.mach.threads[ti].core = Some(CoreId(core as u32));
        self.mach.sim.schedule_in(delay, Ev::Installed(t, core));
    }

    fn finish_install(&mut self, t: ThreadId, core: usize) {
        let ti = t.0 as usize;
        // The thread may have been preempted again during the context
        // switch; only proceed if it still owns the core.
        if self.mach.cores[core] != Some(t) {
            return;
        }
        // Back on a core: resume the accounting category the thread was in
        // when it left (acquiring, inside a critical section, or plain work).
        let resumed = if self.mach.threads[ti].waiting.is_some() {
            CycleCat::LockAcquire
        } else if self.mach.threads[ti].holding > 0 {
            CycleCat::LockHold
        } else {
            CycleCat::Compute
        };
        self.mach.acct_switch(ti, resumed);
        self.mach.trace(|now| TraceEvent {
            t: now,
            ep: TraceEp::Thread(t.0),
            kind: TraceKind::SchedRun {
                thread: t.0,
                core: core as u32,
            },
        });
        self.backend
            .on_thread_scheduled(&mut self.mach, t, CoreId(core as u32));
        // Replay memory ops the backend issued while the thread was off-core.
        while let Some((addr, kind)) = self.mach.threads[ti].deferred_mem.pop_front() {
            self.mach.issue_mem(core, addr, kind, MemIssuer::Backend(t));
        }
        let left = std::mem::take(&mut self.mach.threads[ti].compute_left);
        if left > 0 {
            self.mach.threads[ti].computing = Some(self.mach.sim.now() + left);
            self.mach.sched_resume(t, Outcome::Completed, left);
        }
        if let Some(outcome) = self.mach.threads[ti].pending_outcome.take() {
            self.drive(t, outcome);
        }
    }

    fn maybe_activate_quantum(&mut self) {
        if self.mach.alive > self.mach.cores.len() && !self.mach.quantum_active {
            self.mach.quantum_active = true;
            self.mach.quantum_gen += 1;
            let gen = self.mach.quantum_gen;
            let q = self.mach.cfg.quantum;
            let n = self.mach.cores.len() as u64;
            for core in 0..self.mach.cores.len() {
                // Stagger expirations so cores do not context-switch in
                // lockstep.
                let offset = q + (core as u64 * q) / n.max(1);
                self.mach.sim.schedule_in(offset, Ev::Quantum(core, gen));
            }
        }
    }

    fn quantum_tick(&mut self, core: usize, gen: u64) {
        if gen != self.mach.quantum_gen || !self.mach.quantum_active {
            return;
        }
        if self.mach.alive <= self.mach.cores.len() {
            self.mach.quantum_active = false;
            return;
        }
        // Slice the running thread out only if another is waiting; the
        // core is then free unless nobody is ready, and refill fills it.
        if let Some(cur) = self.mach.cores[core] {
            if !self.mach.ready.is_empty() {
                self.mach.threads[cur.0 as usize].stats.preemptions += 1;
                self.deschedule(cur);
            }
        }
        self.refill(core);
        let q = self.mach.cfg.quantum;
        self.mach.sim.schedule_in(q, Ev::Quantum(core, gen));
    }
}
