//! A BRAVO-style biased reader-writer lock (Dice & Kogan, USENIX ATC '19,
//! arXiv:1810.01553), executed memory-op by memory-op.
//!
//! When the lock is *biased* (`bias == 1`), a reader publishes itself in a
//! global visible-readers table — one CAS into its hashed slot plus a bias
//! re-check — and never touches the underlying lock's reader counter, so
//! concurrent readers of the same lock hit distinct cache lines instead of
//! ping-ponging one counter. Writers acquire the underlying MRSW write
//! lock (MCS writer queue + reader drain), then *revoke* the bias: clear
//! the flag and scan every table slot, waiting for slots that hold this
//! lock's address to empty. The revocation cost is charged back to
//! readers adaptively: re-biasing is inhibited until `now + N × scan
//! duration` (N = [`BRAVO_INHIBIT_MULT`]), so write-heavy phases keep the
//! lock unbiased and read-heavy phases re-bias it.
//!
//! Ordering is Dekker-style: a reader publishes *then* re-checks the
//! bias; a writer clears the bias *then* scans. Whichever order the
//! coherence protocol serializes, either the reader sees the cleared bias
//! (undoes its slot and falls back to the underlying lock) or the writer
//! sees the published slot (and waits for the reader to leave). A reader
//! always empties its slot before blocking on the underlying lock, so
//! revocation can never deadlock against a waiting reader.

use locksim_machine::{Addr, Mach, RmwOp, ThreadId};

use crate::state::{
    read, rmw, write, Phase, ReaderPath, Step, SwState, BRAVO_INHIBIT_MULT, BRAVO_SLOTS,
};

/// Hashed visible-readers table slot for `(thread, lock)` (Fibonacci
/// mixing; collisions just divert the reader to the slow path).
pub(crate) fn slot_of(t: ThreadId, lock: Addr) -> usize {
    let h = (u64::from(t.0).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        ^ lock.0.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    ((h >> 32) as usize) % BRAVO_SLOTS
}

pub(crate) fn start_acquire_read(st: &mut SwState, m: &mut Mach, t: ThreadId) {
    let lock = st.threads[t].lock;
    let meta = st.bravo_meta(m, lock);
    let tsm = st.threads.get_mut(t).expect("tsm");
    tsm.phase = Phase::BravoRReadBias;
    read(m, t, meta.bias);
}

pub(crate) fn start_release_read(st: &mut SwState, m: &mut Mach, t: ThreadId) {
    let lock = st.threads[t].lock;
    let path = st
        .rpaths
        .remove(&(t, lock))
        .expect("bravo read release without recorded path");
    match path {
        ReaderPath::Fast(i) => {
            let slot = st.rtable_slot(m, i);
            let tsm = st.threads.get_mut(t).expect("tsm");
            tsm.phase = Phase::BravoRRelClear;
            write(m, t, slot, 0);
        }
        ReaderPath::Slow => crate::mrsw::start_release_read(st, m, t),
    }
}

/// Diverts an acquiring reader onto the underlying MRSW read lock.
fn slow_path(st: &mut SwState, m: &mut Mach, t: ThreadId) {
    m.counters_mut().incr("sw_bravo_slow_reads");
    crate::mrsw::start_acquire_read(st, m, t);
}

/// The underlying MRSW read lock is held (slow path): decide whether to
/// re-bias, then grant.
pub(crate) fn slow_read_locked(st: &mut SwState, m: &mut Mach, t: ThreadId) {
    let lock = st.threads[t].lock;
    st.rpaths.insert((t, lock), ReaderPath::Slow);
    let meta = st.bravo_meta(m, lock);
    if m.now().cycles() >= meta.inhibit_until {
        m.counters_mut().incr("sw_bravo_rebias");
        let tsm = st.threads.get_mut(t).expect("tsm");
        tsm.phase = Phase::BravoRSetBias;
        write(m, t, meta.bias, 1);
    } else {
        st.grant(m, t);
    }
}

/// The underlying MRSW write lock is held (queue head, counter drained):
/// revoke the bias if set, then grant.
pub(crate) fn writer_locked(st: &mut SwState, m: &mut Mach, t: ThreadId) {
    let lock = st.threads[t].lock;
    let meta = st.bravo_meta(m, lock);
    let tsm = st.threads.get_mut(t).expect("tsm");
    tsm.phase = Phase::BravoWReadBias;
    read(m, t, meta.bias);
}

pub(crate) fn advance(st: &mut SwState, m: &mut Mach, t: ThreadId, step: Step) {
    let lock = match st.threads.get(t) {
        Some(tsm) => tsm.lock,
        None => return,
    };
    let phase = st.threads[t].phase;
    match (phase, step) {
        // ---- reader fast path ----
        (Phase::BravoRReadBias, Step::Value(b)) => {
            if b == 1 {
                let i = slot_of(t, lock);
                let slot = st.rtable_slot(m, i);
                let tsm = st.threads.get_mut(t).expect("tsm");
                tsm.scratch = i as u64;
                tsm.phase = Phase::BravoRPublish;
                rmw(
                    m,
                    t,
                    slot,
                    RmwOp::CompareSwap {
                        expect: 0,
                        new: lock.0,
                    },
                );
            } else {
                slow_path(st, m, t);
            }
        }
        (Phase::BravoRPublish, Step::Value(old)) => {
            if old == 0 {
                let meta = st.bravo_meta(m, lock);
                let tsm = st.threads.get_mut(t).expect("tsm");
                tsm.phase = Phase::BravoRRecheckBias;
                read(m, t, meta.bias);
            } else {
                // Slot collision (another reader, possibly of another
                // lock): fall back without publishing.
                m.counters_mut().incr("sw_bravo_slot_collisions");
                slow_path(st, m, t);
            }
        }
        (Phase::BravoRRecheckBias, Step::Value(b)) => {
            if b == 1 {
                let i = st.threads[t].scratch as usize;
                st.rpaths.insert((t, lock), ReaderPath::Fast(i));
                m.counters_mut().incr("sw_bravo_fast_reads");
                st.grant(m, t);
            } else {
                // A writer revoked the bias between publish and re-check:
                // empty the slot *before* blocking on the underlying lock
                // so the writer's revocation scan cannot wait on us.
                let i = st.threads[t].scratch as usize;
                let slot = st.rtable_slot(m, i);
                let tsm = st.threads.get_mut(t).expect("tsm");
                tsm.phase = Phase::BravoRUndo;
                write(m, t, slot, 0);
            }
        }
        (Phase::BravoRUndo, Step::Value(_)) => slow_path(st, m, t),
        (Phase::BravoRSetBias, Step::Value(_)) => st.grant(m, t),
        // ---- reader fast release ----
        (Phase::BravoRRelClear, Step::Value(_)) => st.released(m, t),
        // ---- writer revocation ----
        (Phase::BravoWReadBias, Step::Value(b)) => {
            if b == 0 {
                st.grant(m, t);
            } else {
                m.lockstat_bump(lock, "sw_bravo_revocations");
                let meta = st.bravo_meta(m, lock);
                let tsm = st.threads.get_mut(t).expect("tsm");
                tsm.phase = Phase::BravoWClearBias;
                write(m, t, meta.bias, 0);
            }
        }
        (Phase::BravoWClearBias, Step::Value(_)) => {
            let slot = st.rtable_slot(m, 0);
            let now = m.now().cycles();
            let tsm = st.threads.get_mut(t).expect("tsm");
            tsm.scratch = 0;
            tsm.scratch2 = now;
            tsm.phase = Phase::BravoWScanRead;
            read(m, t, slot);
        }
        (Phase::BravoWScanRead, Step::Value(v)) => {
            let i = st.threads[t].scratch as usize;
            if v == lock.0 {
                // A visible reader of this lock: wait for it to leave.
                let slot = st.rtable_slot(m, i);
                st.spin(m, t, slot);
            } else if i + 1 == BRAVO_SLOTS {
                // Scan complete: charge its cost to the re-bias window.
                let now = m.now().cycles();
                let t0 = st.threads[t].scratch2;
                let meta = st.bravo.get_mut(&lock).expect("bravo meta");
                meta.inhibit_until = now + now.saturating_sub(t0) * BRAVO_INHIBIT_MULT;
                st.grant(m, t);
            } else {
                let slot = st.rtable_slot(m, i + 1);
                let tsm = st.threads.get_mut(t).expect("tsm");
                tsm.scratch = (i + 1) as u64;
                read(m, t, slot);
            }
        }
        (p, s) => panic!("bravo machine: unexpected {s:?} in {p:?}"),
    }
}
