//! An idealized, zero-latency fair reader-writer lock backend.
//!
//! [`IdealBackend`] resolves every lock operation instantly with a central
//! FIFO queue per lock. It is *not* a realistic implementation — no
//! messages, no occupancy, no hardware budget — but serves two purposes:
//!
//! 1. a correctness harness for machine-level tests (blocking semantics,
//!    scheduler interaction) independent of any real protocol, and
//! 2. the lower-bound "perfect lock" baseline of the harness tables.

use std::collections::VecDeque;

use locksim_engine::{Cycles, FxHashMap};

use crate::addr::Addr;
use crate::lock::{LockBackend, Mode};
use crate::prog::ThreadId;
use crate::world::Mach;

#[derive(Debug, Clone, Default)]
struct LockState {
    writer: Option<ThreadId>,
    readers: Vec<ThreadId>,
    queue: VecDeque<(ThreadId, Mode)>,
}

impl LockState {
    fn is_free_for(&self, mode: Mode) -> bool {
        match mode {
            Mode::Write => self.writer.is_none() && self.readers.is_empty(),
            Mode::Read => self.writer.is_none(),
        }
    }
}

/// The idealized backend. See the module docs.
///
/// Fairness: strict FIFO. A waiting writer blocks later readers (no reader
/// barging), so writers cannot starve.
#[derive(Debug, Clone, Default)]
pub struct IdealBackend {
    locks: FxHashMap<Addr, LockState>,
}

impl IdealBackend {
    /// Creates the backend.
    pub fn new() -> Self {
        Self::default()
    }

    fn grant_from_queue(&mut self, m: &mut Mach, lock: Addr) {
        let st = self.locks.entry(lock).or_default();
        while let Some(&(t, mode)) = st.queue.front() {
            match mode {
                Mode::Write => {
                    if st.writer.is_none() && st.readers.is_empty() {
                        st.queue.pop_front();
                        st.writer = Some(t);
                        m.grant_lock(t, 0);
                    }
                    break;
                }
                Mode::Read => {
                    if st.writer.is_none() {
                        st.queue.pop_front();
                        st.readers.push(t);
                        m.grant_lock(t, 0);
                        // Continue: consecutive readers enter together.
                        continue;
                    }
                    break;
                }
            }
        }
    }
}

impl LockBackend for IdealBackend {
    fn name(&self) -> &'static str {
        "ideal"
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
        m.counters_mut().incr("ideal_acquires");
        let st = self.locks.entry(lock).or_default();
        if st.queue.is_empty() && st.is_free_for(mode) {
            match mode {
                Mode::Write => st.writer = Some(t),
                Mode::Read => st.readers.push(t),
            }
            m.grant_lock(t, 0);
        } else if try_for == Some(0) {
            // An impatient trylock that will not wait at all.
            m.counters_mut().incr("ideal_tryfails");
            m.fail_lock(t, 0);
        } else {
            // The ideal backend has no timeouts: a positive try budget waits
            // in queue like a blocking acquire (granted in FIFO order, and
            // the queue always drains). This keeps the ideal model simple;
            // realistic backends implement real abort paths.
            st.queue.push_back((t, mode));
        }
    }

    fn on_release(&mut self, m: &mut Mach, t: ThreadId, lock: Addr, mode: Mode) {
        let st = self
            .locks
            .get_mut(&lock)
            .unwrap_or_else(|| panic!("release of unknown lock {lock}"));
        match mode {
            Mode::Write => {
                assert_eq!(st.writer, Some(t), "release by non-owner");
                st.writer = None;
            }
            Mode::Read => {
                let pos = st
                    .readers
                    .iter()
                    .position(|&r| r == t)
                    .expect("read-release by non-reader");
                st.readers.swap_remove(pos);
            }
        }
        m.complete_release(t, 0);
        self.grant_from_queue(m, lock);
    }
}
