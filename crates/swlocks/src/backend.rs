//! The software-lock [`LockBackend`]: routes machine events into the
//! per-algorithm state machines.

use locksim_engine::Cycles;
use locksim_machine::{Addr, CoreId, LineAddr, LockBackend, Mach, Mode, ThreadId};

use crate::state::{OpKind, Phase, Step, SwState, TimerPurpose, Tsm, YIELD_AFTER_FUTILE};
use crate::{bravo, fissile, mcs, mrsw, tas};

/// Which software lock algorithm the backend runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SwAlg {
    /// Test-and-set spin lock.
    Tas,
    /// Test-and-test-and-set spin lock.
    Tatas,
    /// Mellor-Crummey–Scott queue lock (mutual exclusion only).
    Mcs,
    /// Reader-writer queue lock with a shared reader counter.
    Mrsw,
    /// Adaptive mutex (spin-then-park TATAS), the "posix" baseline.
    Posix,
    /// BRAVO-style biased reader-writer lock: readers publish into a
    /// global visible-readers table; writers revoke via the underlying
    /// MRSW lock (Dice & Kogan, ATC '19).
    Bravo,
    /// Fissile-style reader-writer lock: an inner MCS core serializing
    /// writers plus an outer lock word aggregating readers (Dice &
    /// Kogan, 2020).
    Fissile,
}

impl SwAlg {
    /// Short label used in experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            SwAlg::Tas => "tas",
            SwAlg::Tatas => "tatas",
            SwAlg::Mcs => "mcs",
            SwAlg::Mrsw => "mrsw",
            SwAlg::Posix => "posix",
            SwAlg::Bravo => "bravo",
            SwAlg::Fissile => "fissile",
        }
    }
}

/// Software-lock backend. See the crate docs.
#[derive(Clone)]
pub struct SwLockBackend {
    st: SwState,
}

impl std::fmt::Debug for SwLockBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SwLockBackend")
            .field("alg", &self.st.alg)
            .finish()
    }
}

impl SwLockBackend {
    /// Creates a backend running `alg`.
    pub fn new(alg: SwAlg) -> Self {
        SwLockBackend {
            st: SwState::new(alg),
        }
    }

    fn dispatch(&mut self, m: &mut Mach, t: ThreadId, step: Step) {
        let Some(tsm) = self.st.threads.get(t) else {
            return;
        };
        match tsm.phase {
            Phase::TasRmw
            | Phase::TasUndo
            | Phase::TatasRead
            | Phase::TatasRmw
            | Phase::PosixParked
            | Phase::SimpleRelStore => {
                let posix = self.st.alg == SwAlg::Posix;
                tas::advance(&mut self.st, m, t, step, posix);
            }
            Phase::McsInit
            | Phase::McsSwap
            | Phase::McsStoreLocked
            | Phase::McsLinkPred
            | Phase::McsSpinRead
            | Phase::McsRelReadNext
            | Phase::McsRelCas
            | Phase::McsRelSpinRead
            | Phase::McsRelUnlock => mcs::advance(&mut self.st, m, t, step),
            Phase::BravoRReadBias
            | Phase::BravoRPublish
            | Phase::BravoRRecheckBias
            | Phase::BravoRUndo
            | Phase::BravoRRelClear
            | Phase::BravoRSetBias
            | Phase::BravoWReadBias
            | Phase::BravoWClearBias
            | Phase::BravoWScanRead => bravo::advance(&mut self.st, m, t, step),
            Phase::FisRInc
            | Phase::FisRDec
            | Phase::FisRWaitCheck
            | Phase::FisRRelDec
            | Phase::FisWSetBit
            | Phase::FisWReadWord
            | Phase::FisWRelClear => fissile::advance(&mut self.st, m, t, step),
            _ => mrsw::advance(&mut self.st, m, t, step),
        }
    }
}

impl LockBackend for SwLockBackend {
    fn name(&self) -> &'static str {
        self.st.alg.label()
    }

    fn fork(&self) -> Box<dyn LockBackend> {
        Box::new(self.clone())
    }

    fn on_acquire(
        &mut self,
        m: &mut Mach,
        t: ThreadId,
        lock: Addr,
        mode: Mode,
        try_for: Option<Cycles>,
    ) {
        assert!(
            !self.st.threads.contains_key(t),
            "{t:?} already mid-operation"
        );
        if mode == Mode::Read {
            assert!(
                matches!(self.st.alg, SwAlg::Mrsw | SwAlg::Bravo | SwAlg::Fissile),
                "{} does not support read locking; use a reader-writer alg",
                self.st.alg.label()
            );
        }
        if try_for.is_some() {
            assert!(
                matches!(self.st.alg, SwAlg::Tas | SwAlg::Tatas | SwAlg::Posix),
                "{} does not support trylock (no queue-lock trylock exists)",
                self.st.alg.label()
            );
        }
        self.st.threads.insert(t, Tsm::new(lock, OpKind::Acquire));
        if let Some(budget) = try_for {
            self.st.arm_abort(m, t, budget.max(1));
        }
        match (self.st.alg, mode) {
            (SwAlg::Tas, _) => tas::start_acquire(&mut self.st, m, t, false),
            (SwAlg::Tatas | SwAlg::Posix, _) => tas::start_acquire(&mut self.st, m, t, true),
            (SwAlg::Mcs, _) => mcs::start_acquire(&mut self.st, m, t),
            (SwAlg::Mrsw, Mode::Read) => mrsw::start_acquire_read(&mut self.st, m, t),
            (SwAlg::Bravo, Mode::Read) => bravo::start_acquire_read(&mut self.st, m, t),
            (SwAlg::Fissile, Mode::Read) => fissile::start_acquire_read(&mut self.st, m, t),
            (SwAlg::Mrsw | SwAlg::Bravo | SwAlg::Fissile, Mode::Write) => {
                mcs::start_acquire(&mut self.st, m, t)
            }
        }
    }

    fn on_release(&mut self, m: &mut Mach, t: ThreadId, lock: Addr, mode: Mode) {
        assert!(
            !self.st.threads.contains_key(t),
            "{t:?} already mid-operation"
        );
        self.st.threads.insert(t, Tsm::new(lock, OpKind::Release));
        match (self.st.alg, mode) {
            (SwAlg::Tas | SwAlg::Tatas | SwAlg::Posix, _) => tas::start_release(&mut self.st, m, t),
            (SwAlg::Mcs, _) | (SwAlg::Mrsw | SwAlg::Bravo, Mode::Write) => {
                mcs::start_release(&mut self.st, m, t)
            }
            (SwAlg::Mrsw, Mode::Read) => mrsw::start_release_read(&mut self.st, m, t),
            (SwAlg::Bravo, Mode::Read) => bravo::start_release_read(&mut self.st, m, t),
            (SwAlg::Fissile, Mode::Read) => fissile::start_release_read(&mut self.st, m, t),
            (SwAlg::Fissile, Mode::Write) => fissile::start_release_write(&mut self.st, m, t),
        }
    }

    fn on_mem_value(&mut self, m: &mut Mach, t: ThreadId, value: u64) {
        self.dispatch(m, t, Step::Value(value));
    }

    fn on_line_invalidated(&mut self, m: &mut Mach, t: ThreadId, _line: LineAddr) {
        // A wake can reach a thread that was preempted after arming its
        // watch (watches stay registered at the old core). Acting on it
        // would start a read that neither the fallback timer nor the
        // reschedule re-read covers — the lost-grant wedge of
        // `tests/corpus/s00025_mrsw_none.txt`. A preempted thread executes
        // nothing: drop the wake and let `on_thread_scheduled` re-read.
        if !m.is_scheduled(t) {
            m.counters_mut().incr("sw_wakes_dropped_offcore");
            return;
        }
        // A real invalidation means the line the spin watches changed —
        // the wait is being served, not futile.
        if let Some(tsm) = self.st.threads.get_mut(t) {
            tsm.futile = 0;
        }
        self.st.reread(m, t);
    }

    fn on_timer(&mut self, m: &mut Mach, token: u64) {
        let (t, purpose) = self.st.timers.take(token);
        match purpose {
            TimerPurpose::Park => self.dispatch(m, t, Step::Timer),
            TimerPurpose::Fallback(phase) => {
                // Only meaningful if the thread is still spinning in the
                // phase that armed it (the wake may have been lost to a
                // message race); otherwise it is a stale no-op. Off-core,
                // the thread cannot re-read; `on_thread_scheduled` will.
                let Some(tsm) = self.st.threads.get_mut(t) else {
                    return;
                };
                if tsm.spin.is_none() || tsm.phase != phase || !m.is_scheduled(t) {
                    return;
                }
                tsm.futile += 1;
                let (lock, futile) = (tsm.lock, tsm.futile);
                m.lockstat_bump(lock, "sw_fallback_redrives");
                if futile >= YIELD_AFTER_FUTILE && m.has_ready_threads() {
                    // Stuck several full fallback periods with threads
                    // waiting for a core: donate the timeslice
                    // (spin-then-yield) so a preempted predecessor —
                    // possibly the thread this spin is waiting on — gets
                    // a core well before the next quantum tick. The
                    // re-read runs when this thread is rescheduled.
                    m.counters_mut().incr("sw_spin_yields");
                    m.request_yield(t);
                } else {
                    self.st.reread(m, t);
                }
            }
            TimerPurpose::Abort => {
                // Only meaningful if the thread is still acquiring.
                let acquiring = self
                    .st
                    .threads
                    .get(t)
                    .is_some_and(|tsm| tsm.op == OpKind::Acquire);
                if acquiring {
                    tas::abort(&mut self.st, m, t);
                }
            }
        }
    }

    fn on_thread_scheduled(&mut self, m: &mut Mach, t: ThreadId, _core: CoreId) {
        // Watches do not survive preemption/migration: end any spin-wait
        // with a fresh read.
        self.st.reread(m, t);
    }

    fn on_thread_descheduled(&mut self, m: &mut Mach, t: ThreadId) {
        // A software lock has no hardware agent acting for an off-core
        // thread: its operation simply freezes, leaving queue successors
        // blocked until it runs again. Count the exposure so fault reports
        // can attribute the resulting stalls.
        if let Some(tsm) = self.st.threads.get(t) {
            let lock = tsm.lock;
            m.lockstat_bump(lock, "sw_descheduled_midop");
        }
    }

    fn debug_state(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (t, tsm) in self.st.threads.iter() {
            writeln!(
                out,
                "{t:?}: lock={} op={:?} phase={:?} spin={:?} qnode={} scratch={:#x} spins={}",
                tsm.lock, tsm.op, tsm.phase, tsm.spin, tsm.qnode, tsm.scratch, tsm.spins
            )
            .ok();
        }
        out
    }
}
