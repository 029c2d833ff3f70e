//! A fair-ish reader-writer queue lock with a shared reader counter — the
//! MRSW baseline.
//!
//! Readers: `fetch_add(rdr, +1)`, check `wactive`; if a writer is active,
//! roll back (`fetch_add(rdr, -1)`) and spin on `wactive`. The counter line
//! is the coherence hotspot the paper measures (two atomic RMWs per reader
//! minimum, four under writer contention).
//!
//! Writers: MCS-enqueue on the writer queue (reusing [`crate::mcs`]); at
//! the head, set `wactive`, then spin until the reader counter drains.
//! Release is the MCS release: it hands off to the next queued writer
//! directly (keeping `wactive` set) or, when the queue empties, clears
//! `wactive` ([`clear_wactive`]), waking readers.

use locksim_machine::{Mach, RmwOp, ThreadId};

use crate::state::{read, rmw, write, OpKind, Phase, Step, SwState};

const MINUS_ONE: u64 = u64::MAX; // wrapping -1 for FetchAdd

pub(crate) fn start_acquire_read(st: &mut SwState, m: &mut Mach, t: ThreadId) {
    let lock = st.threads[t].lock;
    let lm = st.lock_mem(m, lock);
    let tsm = st.threads.get_mut(t).expect("tsm");
    tsm.phase = Phase::MrswRInc;
    rmw(m, t, lm.rdr, RmwOp::FetchAdd(1));
}

pub(crate) fn start_release_read(st: &mut SwState, m: &mut Mach, t: ThreadId) {
    let lock = st.threads[t].lock;
    let lm = st.lock_mem(m, lock);
    let tsm = st.threads.get_mut(t).expect("tsm");
    debug_assert_eq!(tsm.op, OpKind::Release);
    tsm.phase = Phase::MrswRRelDec;
    rmw(m, t, lm.rdr, RmwOp::FetchAdd(MINUS_ONE));
}

/// The writer's MCS release emptied the queue: clear the active flag,
/// waking readers, then complete.
pub(crate) fn clear_wactive(st: &mut SwState, m: &mut Mach, t: ThreadId) {
    let lock = st.threads[t].lock;
    let lm = st.lock_mem(m, lock);
    let tsm = st.threads.get_mut(t).expect("tsm");
    tsm.phase = Phase::MrswWRelClear;
    write(m, t, lm.wactive, 0);
}

/// An MRSW writer reached the head of the writer queue: set the active
/// flag and drain readers.
pub(crate) fn writer_at_head(st: &mut SwState, m: &mut Mach, t: ThreadId) {
    let lock = st.threads[t].lock;
    let lm = st.lock_mem(m, lock);
    let tsm = st.threads.get_mut(t).expect("tsm");
    tsm.phase = Phase::MrswWSetActive;
    write(m, t, lm.wactive, 1);
}

pub(crate) fn advance(st: &mut SwState, m: &mut Mach, t: ThreadId, step: Step) {
    let lock = match st.threads.get(t) {
        Some(tsm) => tsm.lock,
        None => return,
    };
    let lm = st.lock_mem(m, lock);
    let tsm = st.threads.get_mut(t).expect("tsm");
    match (tsm.phase, step) {
        // ---- reader acquire ----
        (Phase::MrswRInc, Step::Value(_)) => {
            tsm.phase = Phase::MrswRCheckW;
            read(m, t, lm.wactive);
        }
        (Phase::MrswRCheckW, Step::Value(w)) => {
            if w == 0 {
                read_locked(st, m, t);
            } else {
                // Roll back and wait for the writer to finish.
                tsm.phase = Phase::MrswRDec;
                st.counters.incr("sw_mrsw_rollbacks");
                rmw(m, t, lm.rdr, RmwOp::FetchAdd(MINUS_ONE));
            }
        }
        (Phase::MrswRDec, Step::Value(_)) => {
            // Re-read before watching: the writer may already be gone.
            tsm.phase = Phase::MrswRWaitCheck;
            read(m, t, lm.wactive);
        }
        (Phase::MrswRWaitCheck, Step::Value(w)) => {
            if w == 0 {
                tsm.phase = Phase::MrswRInc;
                rmw(m, t, lm.rdr, RmwOp::FetchAdd(1));
            } else {
                st.spin(m, t, lm.wactive);
            }
        }
        // ---- reader release ----
        (Phase::MrswRRelDec, Step::Value(_)) => st.released(m, t),
        // ---- writer acquire (post queue-head) ----
        (Phase::MrswWSetActive, Step::Value(_)) => {
            tsm.phase = Phase::MrswWReadRdr;
            read(m, t, lm.rdr);
        }
        (Phase::MrswWReadRdr, Step::Value(r)) => {
            if r == 0 {
                write_locked(st, m, t);
            } else {
                st.counters.incr("sw_mrsw_writer_waits");
                st.spin(m, t, lm.rdr);
            }
        }
        // ---- writer release (after the MCS release emptied the queue) ----
        (Phase::MrswWRelClear, Step::Value(_)) => st.released(m, t),
        (p, s) => panic!("mrsw machine: unexpected {s:?} in {p:?}"),
    }
}

/// The underlying read lock is held. A BRAVO slow-path reader continues
/// into the re-bias decision; MRSW grants directly.
fn read_locked(st: &mut SwState, m: &mut Mach, t: ThreadId) {
    match st.alg {
        crate::SwAlg::Bravo => crate::bravo::slow_read_locked(st, m, t),
        _ => st.grant(m, t),
    }
}

/// The underlying write lock is held (queue head, readers drained). A
/// BRAVO writer continues into bias revocation; MRSW grants directly.
fn write_locked(st: &mut SwState, m: &mut Mach, t: ThreadId) {
    match st.alg {
        crate::SwAlg::Bravo => crate::bravo::writer_locked(st, m, t),
        _ => st.grant(m, t),
    }
}
