//! A Fissile-style reader-writer lock (Dice & Kogan, arXiv:2003.05025),
//! executed memory-op by memory-op.
//!
//! Fissile locks compose two parts: an inner mutual-exclusion core that
//! serializes writers — here the MCS queue machine from [`crate::mcs`],
//! so writer handoff spins stay on per-thread queue-node lines — and an
//! outer lock word carrying a WRITE bit (bit 0) and an aggregated reader
//! count (the bits above it). Readers never enter the queue: one
//! `fetch_add(+2)` acquires if no writer holds the WRITE bit, and one
//! `fetch_add(-2)` releases. If the bit is set the reader rolls its
//! increment back and spins on the word (watch + fallback poll). A
//! writer wins the inner MCS queue first, then sets the WRITE bit with
//! `fetch_add(+1)` and waits for the aggregated reader count to drain to
//! zero before entering. Release clears the bit, then performs the MCS
//! release to hand the inner core to the next queued writer.
//!
//! The coherence footprint is the point of comparison: all readers of a
//! lock share one word line (aggregation hotspot, like MRSW's counter but
//! with no separate writer-active line), while writers pay the extra MCS
//! queue traffic only among themselves.

use locksim_machine::{Mach, RmwOp, ThreadId};

use crate::state::{read, rmw, OpKind, Phase, Step, SwState};

/// Bit 0 of the lock word: a writer holds (or is draining) the lock.
const WRITE_BIT: u64 = 1;
/// One reader in the aggregated count (bits 63..1).
const R_UNIT: u64 = 2;

pub(crate) fn start_acquire_read(st: &mut SwState, m: &mut Mach, t: ThreadId) {
    let lock = st.threads[t].lock;
    let word = st.fissile_word(m, lock);
    let tsm = st.threads.get_mut(t).expect("tsm");
    tsm.phase = Phase::FisRInc;
    rmw(m, t, word, RmwOp::FetchAdd(R_UNIT));
}

pub(crate) fn start_release_read(st: &mut SwState, m: &mut Mach, t: ThreadId) {
    let lock = st.threads[t].lock;
    let word = st.fissile_word(m, lock);
    let tsm = st.threads.get_mut(t).expect("tsm");
    debug_assert_eq!(tsm.op, OpKind::Release);
    tsm.phase = Phase::FisRRelDec;
    rmw(m, t, word, RmwOp::FetchAdd(R_UNIT.wrapping_neg()));
}

pub(crate) fn start_release_write(st: &mut SwState, m: &mut Mach, t: ThreadId) {
    let lock = st.threads[t].lock;
    let word = st.fissile_word(m, lock);
    let tsm = st.threads.get_mut(t).expect("tsm");
    debug_assert_eq!(tsm.op, OpKind::Release);
    tsm.phase = Phase::FisWRelClear;
    rmw(m, t, word, RmwOp::FetchAdd(WRITE_BIT.wrapping_neg()));
}

/// This writer won the inner MCS queue: claim the WRITE bit on the word.
pub(crate) fn writer_at_head(st: &mut SwState, m: &mut Mach, t: ThreadId) {
    let lock = st.threads[t].lock;
    let word = st.fissile_word(m, lock);
    let tsm = st.threads.get_mut(t).expect("tsm");
    tsm.phase = Phase::FisWSetBit;
    rmw(m, t, word, RmwOp::FetchAdd(WRITE_BIT));
}

pub(crate) fn advance(st: &mut SwState, m: &mut Mach, t: ThreadId, step: Step) {
    let lock = match st.threads.get(t) {
        Some(tsm) => tsm.lock,
        None => return,
    };
    let word = st.fissile_word(m, lock);
    let tsm = st.threads.get_mut(t).expect("tsm");
    match (tsm.phase, step) {
        // ---- reader acquire ----
        (Phase::FisRInc, Step::Value(old)) => {
            if old & WRITE_BIT == 0 {
                st.counters.incr("sw_fissile_read_fast");
                st.grant(m, t);
            } else {
                // Writer present: roll the aggregation back and wait.
                tsm.phase = Phase::FisRDec;
                st.counters.incr("sw_fissile_rollbacks");
                rmw(m, t, word, RmwOp::FetchAdd(R_UNIT.wrapping_neg()));
            }
        }
        (Phase::FisRDec, Step::Value(_)) => {
            // Re-read before watching: the writer may already be gone.
            tsm.phase = Phase::FisRWaitCheck;
            read(m, t, word);
        }
        (Phase::FisRWaitCheck, Step::Value(v)) => {
            if v & WRITE_BIT == 0 {
                tsm.phase = Phase::FisRInc;
                rmw(m, t, word, RmwOp::FetchAdd(R_UNIT));
            } else {
                st.spin(m, t, word);
            }
        }
        // ---- reader release ----
        (Phase::FisRRelDec, Step::Value(_)) => st.released(m, t),
        // ---- writer acquire (post inner-queue head) ----
        (Phase::FisWSetBit, Step::Value(old)) => {
            debug_assert_eq!(old & WRITE_BIT, 0, "inner queue serializes writers");
            if old >> 1 == 0 {
                st.grant(m, t);
            } else {
                tsm.phase = Phase::FisWReadWord;
                st.counters.incr("sw_fissile_writer_waits");
                read(m, t, word);
            }
        }
        (Phase::FisWReadWord, Step::Value(v)) => {
            if v == WRITE_BIT {
                st.grant(m, t);
            } else {
                st.spin(m, t, word);
            }
        }
        // ---- writer release ----
        (Phase::FisWRelClear, Step::Value(_)) => {
            // WRITE bit dropped (readers may now aggregate in); hand the
            // inner core to the next queued writer.
            crate::mcs::start_release(st, m, t);
        }
        (p, s) => panic!("fissile machine: unexpected {s:?} in {p:?}"),
    }
}
