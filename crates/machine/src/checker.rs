//! Runtime reader-writer exclusion checker.
//!
//! The machine feeds every backend's grants and releases through one
//! checker, so any protocol bug that violates mutual exclusion aborts the
//! simulation at the exact violating grant instead of corrupting results
//! downstream.

use locksim_engine::FxHashMap;
use locksim_trace::{LockStats, Tracer};

use crate::addr::Addr;
use crate::lock::Mode;
use crate::prog::ThreadId;

/// Trace records touching the lock that an abort dump includes.
const ABORT_DUMP_RECORDS: usize = 32;

/// Tracks, per lock, the current writer and reader set, and asserts the
/// reader-writer exclusion invariant on every transition. The machine owns
/// one and feeds it every backend's grants and releases.
#[derive(Debug, Clone, Default)]
pub struct Checker {
    writer: FxHashMap<Addr, ThreadId>,
    readers: FxHashMap<Addr, Vec<ThreadId>>,
}

impl Checker {
    /// Creates an empty checker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a grant.
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
        tracer: &Tracer,
        lockstat: &LockStats,
    ) {
        if let Err(msg) = self.try_grant(lock, t, mode) {
            abort(&msg, lock, tracer, lockstat);
        }
    }

    fn try_grant(&mut self, lock: Addr, t: ThreadId, mode: Mode) -> Result<(), String> {
        if let Some(w) = self.writer.get(&lock) {
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
                self.writer.insert(lock, t);
            }
            Mode::Read => {
                let rs = self.readers.entry(lock).or_default();
                if rs.contains(&t) {
                    return Err(format!("double read grant of {lock} to {t:?}"));
                }
                rs.push(t);
            }
        }
        Ok(())
    }

    /// Records a release.
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
    ) {
        if let Err(msg) = self.try_release(lock, t, mode) {
            abort(&msg, lock, tracer, lockstat);
        }
    }

    fn try_release(&mut self, lock: Addr, t: ThreadId, mode: Mode) -> Result<(), String> {
        match mode {
            Mode::Write => match self.writer.remove(&lock) {
                Some(w) if w == t => Ok(()),
                w => Err(format!(
                    "write release of {lock} by non-writer {t:?} (writer: {w:?})"
                )),
            },
            Mode::Read => {
                let Some(rs) = self.readers.get_mut(&lock) else {
                    return Err(format!("release of unread lock {lock} by {t:?}"));
                };
                let Some(pos) = rs.iter().position(|&r| r == t) else {
                    return Err(format!("read release of {lock} by non-reader {t:?}"));
                };
                rs.swap_remove(pos);
                Ok(())
            }
        }
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
    use locksim_engine::Time;
    use locksim_trace::{Ep, TraceEvent, TraceKind};

    const L: Addr = Addr(0x40);

    #[test]
    fn write_then_release_then_write() {
        let mut c = Checker::new();
        c.try_grant(L, ThreadId(0), Mode::Write).unwrap();
        let err = c.try_grant(L, ThreadId(1), Mode::Read).unwrap_err();
        assert!(err.contains("exclusion violation"), "{err}");
        c.try_release(L, ThreadId(0), Mode::Write).unwrap();
        c.try_grant(L, ThreadId(1), Mode::Write).unwrap();
    }

    #[test]
    fn concurrent_readers_exclude_writers() {
        let mut c = Checker::new();
        for i in 0..5 {
            c.try_grant(L, ThreadId(i), Mode::Read).unwrap();
        }
        let err = c.try_grant(L, ThreadId(9), Mode::Write).unwrap_err();
        assert!(err.contains("with 5 readers"), "{err}");
        let err = c.try_grant(L, ThreadId(0), Mode::Read).unwrap_err();
        assert!(err.contains("double read grant"), "{err}");
    }

    #[test]
    fn bogus_releases_are_rejected() {
        let mut c = Checker::new();
        c.try_grant(L, ThreadId(0), Mode::Write).unwrap();
        let err = c.try_release(L, ThreadId(1), Mode::Write).unwrap_err();
        assert!(err.contains("non-writer"), "{err}");
        let err = c.try_release(L, ThreadId(1), Mode::Read).unwrap_err();
        assert!(err.contains("unread lock"), "{err}");
    }

    #[test]
    fn independent_locks() {
        let mut c = Checker::new();
        c.try_grant(Addr(1), ThreadId(0), Mode::Write).unwrap();
        c.try_grant(Addr(2), ThreadId(1), Mode::Write).unwrap();
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
        c.on_grant(L, ThreadId(0), Mode::Write, &tracer, &ls);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.on_grant(L, ThreadId(1), Mode::Write, &tracer, &ls);
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
