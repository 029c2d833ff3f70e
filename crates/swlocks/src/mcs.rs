//! The Mellor-Crummey–Scott queue lock, executed memory-op by memory-op.
//!
//! Queue node layout (one line per `(thread, lock)`): word 0 = `next`
//! pointer, word 1 = `locked` flag. The lock's tail pointer lives in the
//! lock's side memory. MRSW, BRAVO and Fissile run their writer queues on
//! this machine, both ways: on MCS-acquisition a writer continues into its
//! algorithm's phases instead of being granted ([`mcs_acquired`]), and its
//! release is this machine's, with one hook for MRSW and BRAVO when the
//! queue empties ([`queue_emptied`]).

use locksim_machine::{Addr, Mach, RmwOp, ThreadId};

use crate::state::{read, rmw, write, OpKind, Phase, Step, SwState};

pub(crate) fn start_acquire(st: &mut SwState, m: &mut Mach, t: ThreadId) {
    let lock = st.threads[t].lock;
    let lm = st.lock_mem(m, lock);
    let q = st.qnode(m, t, lock);
    let tsm = st.threads.get_mut(t).expect("tsm");
    tsm.qnode = q;
    tsm.scratch = lm.tail.0;
    tsm.phase = Phase::McsInit;
    // qnode.next = null
    write(m, t, q, 0);
}

pub(crate) fn start_release(st: &mut SwState, m: &mut Mach, t: ThreadId) {
    let lock = st.threads[t].lock;
    let lm = st.lock_mem(m, lock);
    let q = st.qnode(m, t, lock);
    let tsm = st.threads.get_mut(t).expect("tsm");
    debug_assert_eq!(tsm.op, OpKind::Release);
    tsm.qnode = q;
    tsm.scratch = lm.tail.0;
    tsm.phase = Phase::McsRelReadNext;
    read(m, t, q);
}

/// Advances the MCS machine. What happens when the queue grants depends
/// on the algorithm (see [`mcs_acquired`]): plain MCS grants the lock;
/// MRSW/BRAVO writers proceed to drain readers; Fissile writers set the
/// write bit on the lock word.
pub(crate) fn advance(st: &mut SwState, m: &mut Mach, t: ThreadId, step: Step) {
    let Some(tsm) = st.threads.get_mut(t) else {
        return;
    };
    let q = tsm.qnode;
    let tail = Addr(tsm.scratch);
    match (tsm.phase, step) {
        // ---- acquire ----
        (Phase::McsInit, Step::Value(_)) => {
            tsm.phase = Phase::McsSwap;
            rmw(m, t, tail, RmwOp::Swap(q.0));
        }
        (Phase::McsSwap, Step::Value(pred)) => {
            if pred == 0 {
                mcs_acquired(st, m, t);
            } else {
                // locked = 1, then link pred.next = q, then spin.
                tsm.phase = Phase::McsStoreLocked;
                // Stash the predecessor in the high scratch bits? No —
                // repurpose: the tail address is recoverable from lock_mem,
                // so scratch can hold the predecessor now.
                tsm.scratch = pred;
                write(m, t, q.add(1), 1);
            }
        }
        (Phase::McsStoreLocked, Step::Value(_)) => {
            let pred = Addr(tsm.scratch);
            tsm.phase = Phase::McsLinkPred;
            write(m, t, pred, q.0);
        }
        (Phase::McsLinkPred, Step::Value(_)) => {
            tsm.phase = Phase::McsSpinRead;
            read(m, t, q.add(1));
        }
        (Phase::McsSpinRead, Step::Value(v)) => {
            if v == 0 {
                mcs_acquired(st, m, t);
            } else {
                st.counters.incr("sw_mcs_spins");
                st.spin(m, t, q.add(1));
            }
        }
        // ---- release ----
        (Phase::McsRelReadNext, Step::Value(next)) => {
            if next != 0 {
                tsm.phase = Phase::McsRelUnlock;
                write(m, t, Addr(next).add(1), 0);
            } else {
                tsm.phase = Phase::McsRelCas;
                rmw(
                    m,
                    t,
                    tail,
                    RmwOp::CompareSwap {
                        expect: q.0,
                        new: 0,
                    },
                );
            }
        }
        (Phase::McsRelCas, Step::Value(old)) => {
            if old == q.0 {
                // No successor: lock is free.
                queue_emptied(st, m, t);
            } else {
                // A successor is mid-enqueue: wait for it to link.
                tsm.phase = Phase::McsRelSpinRead;
                read(m, t, q);
            }
        }
        (Phase::McsRelSpinRead, Step::Value(next)) => {
            if next != 0 {
                tsm.phase = Phase::McsRelUnlock;
                write(m, t, Addr(next).add(1), 0);
            } else {
                st.spin(m, t, q);
            }
        }
        (Phase::McsRelUnlock, Step::Value(_)) => st.released(m, t),
        (p, s) => panic!("mcs machine: unexpected {s:?} in {p:?}"),
    }
}

/// The queue made this thread the lock holder. MRSW and BRAVO writers
/// continue into the reader-drain phases (BRAVO additionally revokes the
/// reader bias once drained); Fissile writers continue onto the lock word.
fn mcs_acquired(st: &mut SwState, m: &mut Mach, t: ThreadId) {
    match st.alg {
        crate::SwAlg::Mrsw | crate::SwAlg::Bravo => crate::mrsw::writer_at_head(st, m, t),
        crate::SwAlg::Fissile => crate::fissile::writer_at_head(st, m, t),
        _ => st.grant(m, t),
    }
}

/// A release emptied the queue. An MRSW or BRAVO writer still holds the
/// writer-active flag (a handoff to a queued writer keeps it set): clear
/// it, waking spinning readers, then complete. Other algorithms are done.
fn queue_emptied(st: &mut SwState, m: &mut Mach, t: ThreadId) {
    match st.alg {
        crate::SwAlg::Mrsw | crate::SwAlg::Bravo => crate::mrsw::clear_wactive(st, m, t),
        _ => st.released(m, t),
    }
}
