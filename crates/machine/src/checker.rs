//! Runtime reader-writer exclusion checker.
//!
//! The machine feeds every backend's grants and releases through one
//! checker, so any protocol bug that violates mutual exclusion aborts the
//! simulation at the exact violating grant instead of corrupting results
//! downstream.

use locksim_engine::{FxHashMap, Time};
use locksim_trace::{LockStats, Tracer};

use crate::addr::Addr;
use crate::lock::Mode;
use crate::prog::ThreadId;

/// Trace records touching the lock that an abort dump includes.
const ABORT_DUMP_RECORDS: usize = 32;

/// Tracks, per lock, the current writer and reader set with each holder's
/// grant time, and asserts the reader-writer exclusion invariant on every
/// transition. The machine owns one and feeds it every backend's grants and
/// releases; it is the machine's one record of who holds which lock.
#[derive(Debug, Clone, Default)]
pub struct Checker {
    writer: FxHashMap<Addr, (ThreadId, Time)>,
    readers: FxHashMap<Addr, Vec<(ThreadId, Time)>>,
}

impl Checker {
    /// Creates an empty checker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a grant to `t`, taking effect at time `at`.
    ///
    /// # Panics
    ///
    /// Panics if the grant violates reader-writer exclusion. The message
    /// carries the last 32 trace records touching the lock and the lock's
    /// lockstat snapshot.
    pub fn on_grant(
        &mut self,
        lock: Addr,
        t: ThreadId,
        mode: Mode,
        at: Time,
        tracer: &Tracer,
        lockstat: &LockStats,
    ) {
        if let Err(msg) = self.try_grant(lock, t, mode, at) {
            abort(&msg, lock, tracer, lockstat);
        }
    }

    fn try_grant(&mut self, lock: Addr, t: ThreadId, mode: Mode, at: Time) -> Result<(), String> {
        if let Some((w, _)) = self.writer.get(&lock) {
            return Err(format!(
                "exclusion violation: {} grant of {lock} to {t:?} while {w:?} writes",
                mode_name(mode)
            ));
        }
        match mode {
            Mode::Write => {
                let readers = self.readers.get(&lock).map_or(0, Vec::len);
                if readers != 0 {
                    return Err(format!(
                        "exclusion violation: write grant of {lock} to {t:?} with {readers} readers"
                    ));
                }
                self.writer.insert(lock, (t, at));
            }
            Mode::Read => {
                // Most locks never have two readers at once, so a list
                // starts at one slot, not four: a run keeps one per lock.
                let rs = self
                    .readers
                    .entry(lock)
                    .or_insert_with(|| Vec::with_capacity(1));
                if rs.iter().any(|&(r, _)| r == t) {
                    return Err(format!("double read grant of {lock} to {t:?}"));
                }
                rs.push((t, at));
            }
        }
        Ok(())
    }

    /// Records a release and returns the time the releaser was granted
    /// the lock.
    ///
    /// # Panics
    ///
    /// Panics if the releaser does not hold the lock in `mode`, with the
    /// same lock history and lockstat snapshot as [`Checker::on_grant`].
    pub fn on_release(
        &mut self,
        lock: Addr,
        t: ThreadId,
        mode: Mode,
        tracer: &Tracer,
        lockstat: &LockStats,
    ) -> Time {
        self.try_release(lock, t, mode)
            .unwrap_or_else(|msg| abort(&msg, lock, tracer, lockstat))
    }

    fn try_release(&mut self, lock: Addr, t: ThreadId, mode: Mode) -> Result<Time, String> {
        match mode {
            Mode::Write => match self.writer.remove(&lock) {
                Some((w, at)) if w == t => Ok(at),
                w => Err(format!(
                    "write release of {lock} by non-writer {t:?} (writer: {:?})",
                    w.map(|(w, _)| w)
                )),
            },
            Mode::Read => {
                let Some(rs) = self.readers.get_mut(&lock) else {
                    return Err(format!("release of unread lock {lock} by {t:?}"));
                };
                let Some(pos) = rs.iter().position(|&(r, _)| r == t) else {
                    return Err(format!("read release of {lock} by non-reader {t:?}"));
                };
                Ok(rs.swap_remove(pos).1)
            }
        }
    }

    /// The threads holding `lock`, in thread order.
    pub fn holders(&self, lock: Addr) -> Vec<ThreadId> {
        if let Some(&(w, _)) = self.writer.get(&lock) {
            return vec![w];
        }
        let rs = self.readers.get(&lock).into_iter().flatten();
        let mut rs: Vec<ThreadId> = rs.map(|&(r, _)| r).collect();
        rs.sort_unstable();
        rs
    }

    /// A lock some thread still holds, if any: the lowest-addressed one,
    /// with its writer or lowest reader.
    pub fn any_held(&self) -> Option<(Addr, ThreadId)> {
        let writers = self.writer.iter().map(|(&l, &(t, _))| (l, t));
        let readers = self
            .readers
            .iter()
            .filter_map(|(&l, rs)| rs.iter().map(|&(t, _)| t).min().map(|t| (l, t)));
        writers.chain(readers).min()
    }
}

fn abort(msg: &str, lock: Addr, tracer: &Tracer, lockstat: &LockStats) -> ! {
    panic!(
        "{msg}\n{}{}",
        tracer.lock_history_report(lock.0, ABORT_DUMP_RECORDS),
        lockstat.lock_snapshot(lock.0)
    );
}

fn mode_name(mode: Mode) -> &'static str {
    match mode {
        Mode::Read => "read",
        Mode::Write => "write",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locksim_trace::{Ep, TraceEvent, TraceKind};

    const L: Addr = Addr(0x40);
    const T0: Time = Time::ZERO;

    #[test]
    fn write_then_release_then_write() {
        let mut c = Checker::new();
        c.try_grant(L, ThreadId(0), Mode::Write, T0).unwrap();
        let err = c.try_grant(L, ThreadId(1), Mode::Read, T0).unwrap_err();
        assert!(err.contains("exclusion violation"), "{err}");
        c.try_release(L, ThreadId(0), Mode::Write).unwrap();
        c.try_grant(L, ThreadId(1), Mode::Write, T0).unwrap();
    }

    #[test]
    fn concurrent_readers_exclude_writers() {
        let mut c = Checker::new();
        for i in 0..5 {
            c.try_grant(L, ThreadId(i), Mode::Read, T0).unwrap();
        }
        let err = c.try_grant(L, ThreadId(9), Mode::Write, T0).unwrap_err();
        assert!(err.contains("with 5 readers"), "{err}");
        let err = c.try_grant(L, ThreadId(0), Mode::Read, T0).unwrap_err();
        assert!(err.contains("double read grant"), "{err}");
    }

    #[test]
    fn bogus_releases_are_rejected() {
        let mut c = Checker::new();
        c.try_grant(L, ThreadId(0), Mode::Write, T0).unwrap();
        let err = c.try_release(L, ThreadId(1), Mode::Write).unwrap_err();
        assert!(err.contains("non-writer"), "{err}");
        let err = c.try_release(L, ThreadId(1), Mode::Read).unwrap_err();
        assert!(err.contains("unread lock"), "{err}");
    }

    #[test]
    fn independent_locks() {
        let mut c = Checker::new();
        c.try_grant(Addr(1), ThreadId(0), Mode::Write, T0).unwrap();
        c.try_grant(Addr(2), ThreadId(1), Mode::Write, T0).unwrap();
    }

    #[test]
    fn traced_violation_dumps_lock_history_and_lockstat() {
        let mut tracer = Tracer::new();
        tracer.enable(16);
        tracer.record(|| TraceEvent {
            t: Time::from_cycles(10),
            ep: Ep::Thread(0),
            kind: TraceKind::LockGrant {
                lock: L.0,
                thread: 0,
                write: true,
                wait: 3,
            },
        });
        let mut ls = LockStats::new();
        ls.enable(None);
        ls.on_request(L.0, 0, true, 7);
        ls.on_grant(L.0, 0, true, 3, 10);
        let mut c = Checker::new();
        c.on_grant(L, ThreadId(0), Mode::Write, T0, &tracer, &ls);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.on_grant(L, ThreadId(1), Mode::Write, T0, &tracer, &ls);
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().expect("string panic");
        assert!(msg.contains("exclusion violation"), "{msg}");
        assert!(msg.contains("lock_grant"), "history missing from: {msg}");
        assert!(
            msg.contains("acquires r=0 w=1"),
            "lockstat snapshot missing from: {msg}"
        );
    }

    #[test]
    fn traced_release_violation_reports() {
        let tracer = Tracer::new(); // disabled: report still renders
        let mut c = Checker::new();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.on_release(L, ThreadId(3), Mode::Read, &tracer, &LockStats::new());
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().expect("string panic");
        assert!(msg.contains("unread lock"), "{msg}");
    }
}
