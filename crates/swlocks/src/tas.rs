//! TAS, TATAS and adaptive-mutex ("posix") state machines.
//!
//! The lock word is the user's lock address itself: 0 = free, 1 = held.
//! TAS hammers atomic swaps (each one a GetM round trip); TATAS spins on a
//! shared copy and swaps only when it reads 0; the adaptive mutex is TATAS
//! with a park after a few fruitless wake-ups.

use locksim_machine::{Mach, RmwOp, ThreadId};

use crate::state::{read, rmw, write, OpKind, Phase, Step, SwState};

/// Wake-ups a Posix-mutex spinner tolerates before parking.
const POSIX_SPIN_LIMIT: u64 = 3;
/// Park duration (futex-wake latency stand-in), cycles.
const POSIX_PARK: u64 = 3_000;

pub(crate) fn start_acquire(st: &mut SwState, m: &mut Mach, t: ThreadId, tatas: bool) {
    let tsm = st.threads.get_mut(t).expect("tsm");
    if tatas {
        tsm.phase = Phase::TatasRead;
        let lock = tsm.lock;
        read(m, t, lock);
    } else {
        tsm.phase = Phase::TasRmw;
        let lock = tsm.lock;
        rmw(m, t, lock, RmwOp::Swap(1));
    }
}

pub(crate) fn start_release(st: &mut SwState, m: &mut Mach, t: ThreadId) {
    let tsm = st.threads.get_mut(t).expect("tsm");
    debug_assert_eq!(tsm.op, OpKind::Release);
    tsm.phase = Phase::SimpleRelStore;
    let lock = tsm.lock;
    write(m, t, lock, 0);
}

/// Advances the TAS/TATAS/Posix machine. `posix` enables parking.
pub(crate) fn advance(st: &mut SwState, m: &mut Mach, t: ThreadId, step: Step, posix: bool) {
    let Some(tsm) = st.threads.get_mut(t) else {
        return;
    };
    let lock = tsm.lock;
    match (tsm.phase, step) {
        (Phase::TasRmw, Step::Value(old)) => {
            if tsm.aborted {
                // The swap may have succeeded after the trylock expired:
                // undo a successful grab, then report failure. The thread
                // stays blocked until the undo completes so no later
                // operation can race this one's completions.
                if old == 0 {
                    tsm.phase = Phase::TasUndo;
                    write(m, t, lock, 0);
                } else {
                    st.fail(m, t);
                }
            } else if old == 0 {
                st.grant(m, t);
            } else {
                m.counters_mut().incr("sw_tas_retries");
                rmw(m, t, lock, RmwOp::Swap(1));
            }
        }
        (Phase::TatasRead, Step::Value(v)) => {
            if tsm.aborted {
                st.fail(m, t);
            } else if v == 0 {
                tsm.phase = Phase::TatasRmw;
                rmw(m, t, lock, RmwOp::Swap(1));
            } else {
                tsm.spins += 1;
                if posix && tsm.spins > POSIX_SPIN_LIMIT {
                    tsm.phase = Phase::PosixParked;
                    m.counters_mut().incr("sw_posix_parks");
                    st.park(m, t, POSIX_PARK);
                } else {
                    st.spin(m, t, lock);
                }
            }
        }
        (Phase::TatasRmw, Step::Value(old)) => {
            if tsm.aborted {
                if old == 0 {
                    tsm.phase = Phase::TasUndo;
                    write(m, t, lock, 0);
                } else {
                    st.fail(m, t);
                }
            } else if old == 0 {
                st.grant(m, t);
            } else {
                // Lost the race: back to spinning.
                tsm.phase = Phase::TatasRead;
                m.counters_mut().incr("sw_tatas_races");
                read(m, t, lock);
            }
        }
        (Phase::PosixParked, Step::Timer) => {
            if tsm.aborted {
                st.fail(m, t);
            } else {
                tsm.phase = Phase::TatasRead;
                tsm.spins = 0;
                read(m, t, lock);
            }
        }
        (Phase::TasUndo, Step::Value(_)) => st.fail(m, t),
        (Phase::SimpleRelStore, Step::Value(_)) => st.released(m, t),
        // A park timer left over from an operation that failed is ignored.
        (_, Step::Timer) => {}
        (p, s) => panic!("tas machine: unexpected {s:?} in {p:?}"),
    }
}

/// Marks a pending acquire as aborted; the machine unwinds at its next
/// step. A spinning or parked thread has no step in flight, so it fails at
/// once.
pub(crate) fn abort(st: &mut SwState, m: &mut Mach, t: ThreadId) {
    let Some(tsm) = st.threads.get_mut(t) else {
        return;
    };
    if tsm.spin.is_some() || tsm.phase == Phase::PosixParked {
        st.fail(m, t);
    } else {
        tsm.aborted = true;
    }
}
