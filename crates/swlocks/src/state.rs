//! Shared state for the software-lock state machines.

use locksim_engine::stats::Counters;
use locksim_engine::FxHashMap;
use locksim_machine::{Addr, InFlight, Mach, MemKind, PerThread, RmwOp, ThreadId};

use crate::backend::SwAlg;

/// Issues a timed load on behalf of `t`.
pub(crate) fn read(m: &mut Mach, t: ThreadId, a: Addr) {
    m.backend_mem(t, a, MemKind::Load);
}

/// Issues a timed store on behalf of `t`.
pub(crate) fn write(m: &mut Mach, t: ThreadId, a: Addr, v: u64) {
    m.backend_mem(t, a, MemKind::Store(v));
}

/// Issues a timed atomic RMW on behalf of `t`.
pub(crate) fn rmw(m: &mut Mach, t: ThreadId, a: Addr, op: RmwOp) {
    m.backend_mem(t, a, MemKind::Rmw(op));
}

/// Event driving a lock state machine forward.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    /// A memory operation completed with this (old) value.
    Value(u64),
    /// A parked thread's timer fired.
    Timer,
}

/// Why a timer was armed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TimerPurpose {
    /// Parked adaptive-mutex spinner re-checks the lock.
    Park,
    /// Trylock budget expiry.
    Abort,
    /// Spin-wait fallback: if the thread is still spinning in the recorded
    /// phase when this fires, re-read instead of trusting the wake. Real
    /// spin loops poll; the invalidation watch is only a fast path.
    Fallback(Phase),
}

/// What a thread is currently doing to its lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OpKind {
    Acquire,
    Release,
}

/// Phases of all the algorithms' state machines (flat enum; each algorithm
/// uses its own subset). A spin-wait has no phase of its own: the thread
/// stays in the phase that judges the re-read ([`SwState::spin`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    // TAS
    TasRmw,
    /// A trylock's swap won after its budget expired: store 0 back, then
    /// report failure.
    TasUndo,
    // TATAS / Posix
    TatasRead,
    TatasRmw,
    PosixParked,
    // simple release (store 0)
    SimpleRelStore,
    // MCS acquire
    McsInit,
    McsSwap,
    McsStoreLocked,
    McsLinkPred,
    McsSpinRead,
    // MCS release
    McsRelReadNext,
    McsRelCas,
    McsRelSpinRead,
    McsRelUnlock,
    // MRSW read acquire
    MrswRInc,
    MrswRCheckW,
    MrswRDec,
    MrswRWaitCheck,
    // MRSW read release
    MrswRRelDec,
    // MRSW write acquire
    MrswWSetActive,
    MrswWReadRdr,
    // MRSW/BRAVO write release, once the MCS release emptied the queue
    MrswWRelClear,
    // BRAVO reader fast path (publish into the visible-readers table)
    BravoRReadBias,
    BravoRPublish,
    BravoRRecheckBias,
    BravoRUndo,
    BravoRRelClear,
    // BRAVO slow reader re-biasing the lock after the inhibit window
    BravoRSetBias,
    // BRAVO writer revocation (runs after the underlying write acquire)
    BravoWReadBias,
    BravoWClearBias,
    BravoWScanRead,
    // Fissile reader aggregation on the lock word
    FisRInc,
    FisRDec,
    FisRWaitCheck,
    FisRRelDec,
    // Fissile writer (runs after winning the inner MCS queue)
    FisWSetBit,
    FisWReadWord,
    FisWRelClear,
}

/// Per-thread in-flight lock operation.
#[derive(Debug, Clone)]
pub(crate) struct Tsm {
    pub lock: Addr,
    pub op: OpKind,
    pub phase: Phase,
    /// The word this thread spin-waits on, while it waits
    /// ([`SwState::spin`]).
    pub spin: Option<Addr>,
    /// This thread's queue node for `lock` (queue locks).
    pub qnode: Addr,
    /// Scratch register (predecessor / next pointer / table slot).
    pub scratch: u64,
    /// Second scratch register (revocation-scan start cycle).
    pub scratch2: u64,
    /// Trylock expired; unwind instead of granting.
    pub aborted: bool,
    /// Consecutive spin wake-ups (drives Posix parking).
    pub spins: u64,
    /// Consecutive fallback timers that fired with no intervening
    /// invalidation wake — a measure of how long the spin has been futile.
    /// Past [`YIELD_AFTER_FUTILE`] an oversubscribed spinner donates its
    /// timeslice instead of burning it.
    pub futile: u32,
}

impl Tsm {
    /// The record for a new acquire or release of `lock`.
    pub fn new(lock: Addr, op: OpKind) -> Self {
        Tsm {
            lock,
            op,
            phase: Phase::TasRmw,
            spin: None,
            qnode: Addr(0),
            scratch: 0,
            scratch2: 0,
            aborted: false,
            spins: 0,
            futile: 0,
        }
    }
}

/// Cycles between a spinner's fallback polls of its watched word.
pub(crate) const SPIN_POLL: u64 = 5_000;

/// Futile fallback periods ([`SPIN_POLL`] cycles each) a spinner
/// tolerates before yielding its core when other threads are waiting to
/// run. Low enough that a handoff stalled behind a preempted queue head
/// recovers well inside the chaos detector's quiescence window; high
/// enough that the oversubscription anomaly of pure spinning (Fig. 10)
/// still shows.
pub(crate) const YIELD_AFTER_FUTILE: u32 = 6;

/// Side memory for one lock (allocated lazily, each word on its own line).
#[derive(Debug, Clone, Copy)]
pub(crate) struct LockMem {
    /// MCS tail pointer / MRSW writer-queue tail.
    pub tail: Addr,
    /// MRSW reader counter (the hotspot line).
    pub rdr: Addr,
    /// MRSW writer-active flag.
    pub wactive: Addr,
}

/// Slots in the BRAVO global visible-readers table. Each slot is its own
/// cache line; a fast-path reader publishes into `hash(thread, lock)` and
/// a revoking writer scans all of them. Sized so the simulator's ≤64-core
/// workloads collide occasionally (exercising the slow path) without
/// making revocation scans dominate.
pub(crate) const BRAVO_SLOTS: usize = 16;

/// Multiplier applied to a revocation scan's measured duration to derive
/// the bias-inhibit window (BRAVO's adaptive `N` — the paper uses 9).
pub(crate) const BRAVO_INHIBIT_MULT: u64 = 9;

/// Per-lock BRAVO metadata: the bias-flag line plus the host-side
/// re-bias inhibit deadline (a cycle count, not simulated memory — in a
/// real implementation this word rides in the lock struct and is only
/// touched under the write lock, so modelling it as free does not hide
/// coherence traffic).
#[derive(Debug, Clone, Copy)]
pub(crate) struct BravoMeta {
    pub bias: Addr,
    pub inhibit_until: u64,
}

/// How a granted BRAVO reader entered the lock — decides which release
/// path its unlock must take (the slot store vs the underlying counter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReaderPath {
    /// Fast path: holds visible-readers table slot `i`.
    Fast(usize),
    /// Slow path: holds a unit of the underlying MRSW reader counter.
    Slow,
}

/// Shared backend state handed to the per-algorithm modules.
#[derive(Clone)]
pub(crate) struct SwState {
    pub alg: SwAlg,
    pub threads: PerThread<Tsm>,
    pub mem: FxHashMap<Addr, LockMem>,
    pub qnodes: FxHashMap<(ThreadId, Addr), Addr>,
    pub timers: InFlight<(ThreadId, TimerPurpose)>,
    pub counters: Counters,
    /// BRAVO per-lock metadata (lazily allocated; empty for other algs so
    /// the allocation sequence of existing algorithms is untouched).
    pub bravo: FxHashMap<Addr, BravoMeta>,
    /// BRAVO global visible-readers table, shared by all locks.
    pub rtable: Vec<Addr>,
    /// Which path each granted BRAVO reader took (keyed by holder).
    pub rpaths: FxHashMap<(ThreadId, Addr), ReaderPath>,
    /// Fissile per-lock word line (WRITE bit 0, reader count above it).
    pub fissile: FxHashMap<Addr, Addr>,
}

impl SwState {
    pub fn new(alg: SwAlg) -> Self {
        SwState {
            alg,
            threads: PerThread::new(),
            mem: FxHashMap::default(),
            qnodes: FxHashMap::default(),
            timers: InFlight::new(),
            counters: Counters::new(),
            bravo: FxHashMap::default(),
            rtable: Vec::new(),
            rpaths: FxHashMap::default(),
            fissile: FxHashMap::default(),
        }
    }

    /// Lazily allocates the side memory for a lock.
    pub fn lock_mem(&mut self, m: &mut Mach, lock: Addr) -> LockMem {
        if let Some(&lm) = self.mem.get(&lock) {
            return lm;
        }
        let lm = LockMem {
            tail: m.alloc().alloc_line(),
            rdr: m.alloc().alloc_line(),
            wactive: m.alloc().alloc_line(),
        };
        self.mem.insert(lock, lm);
        lm
    }

    /// Lazily allocates the BRAVO metadata (bias line) for a lock.
    pub fn bravo_meta(&mut self, m: &mut Mach, lock: Addr) -> BravoMeta {
        if let Some(&meta) = self.bravo.get(&lock) {
            return meta;
        }
        let meta = BravoMeta {
            bias: m.alloc().alloc_line(),
            inhibit_until: 0,
        };
        self.bravo.insert(lock, meta);
        meta
    }

    /// Lazily allocates the global visible-readers table (one line per
    /// slot) and returns slot `i`'s address.
    pub fn rtable_slot(&mut self, m: &mut Mach, i: usize) -> Addr {
        if self.rtable.is_empty() {
            self.rtable = (0..BRAVO_SLOTS).map(|_| m.alloc().alloc_line()).collect();
        }
        self.rtable[i]
    }

    /// Lazily allocates the Fissile lock word for a lock.
    pub fn fissile_word(&mut self, m: &mut Mach, lock: Addr) -> Addr {
        if let Some(&w) = self.fissile.get(&lock) {
            return w;
        }
        let w = m.alloc().alloc_line();
        self.fissile.insert(lock, w);
        w
    }

    /// Lazily allocates this thread's queue node for `lock` (one line:
    /// word 0 = next, word 1 = locked flag).
    pub fn qnode(&mut self, m: &mut Mach, t: ThreadId, lock: Addr) -> Addr {
        if let Some(&q) = self.qnodes.get(&(t, lock)) {
            return q;
        }
        let q = m.alloc().alloc_line();
        self.qnodes.insert((t, lock), q);
        q
    }

    /// Arms a parked-thread timer.
    pub fn park(&mut self, m: &mut Mach, t: ThreadId, delay: u64) {
        self.arm(m, t, delay, TimerPurpose::Park);
    }

    /// Arms a trylock-expiry timer.
    pub fn arm_abort(&mut self, m: &mut Mach, t: ThreadId, delay: u64) {
        self.arm(m, t, delay, TimerPurpose::Abort);
    }

    /// Spin-waits on the word at `a`: watches its line and arms the
    /// fallback poll. The thread stays in its current phase, which judges
    /// the value [`SwState::reread`] fetches.
    pub fn spin(&mut self, m: &mut Mach, t: ThreadId, a: Addr) {
        m.watch_line(t, a.line());
        let tsm = self.threads.get_mut(t).expect("spin without op");
        tsm.spin = Some(a);
        let phase = tsm.phase;
        self.arm(m, t, SPIN_POLL, TimerPurpose::Fallback(phase));
    }

    /// Ends a spin-wait, if `t` is in one, by reading its word again. The
    /// one step for an invalidation wake, a fallback poll and a reschedule
    /// (watches do not survive preemption or migration).
    pub fn reread(&mut self, m: &mut Mach, t: ThreadId) {
        if let Some(a) = self.threads.get_mut(t).and_then(|tsm| tsm.spin.take()) {
            read(m, t, a);
        }
    }

    fn arm(&mut self, m: &mut Mach, t: ThreadId, delay: u64, purpose: TimerPurpose) {
        let token = self.timers.put((t, purpose));
        m.set_timer(delay, token);
    }

    /// Completes an acquire: grant, state cleared.
    pub fn grant(&mut self, m: &mut Mach, t: ThreadId) {
        let tsm = self.threads.remove(t).expect("grant without op");
        debug_assert_eq!(tsm.op, OpKind::Acquire);
        self.counters.incr("sw_grants");
        m.grant_lock(t, 0);
    }

    /// Completes a failed trylock.
    pub fn fail(&mut self, m: &mut Mach, t: ThreadId) {
        self.threads.remove(t);
        self.counters.incr("sw_tryfails");
        m.fail_lock(t, 0);
    }

    /// Completes a release. (The machine's exclusion checker records the
    /// release at issue time — the critical section ends when the thread
    /// *invokes* release; the store's completion message can legitimately
    /// arrive after the next owner's grant.)
    pub fn released(&mut self, m: &mut Mach, t: ThreadId) {
        let tsm = self
            .threads
            .remove(t)
            .expect("release completion without op");
        debug_assert_eq!(tsm.op, OpKind::Release);
        self.counters.incr("sw_releases");
        m.complete_release(t, 0);
    }
}
