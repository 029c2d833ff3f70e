//! Quiescence-based deadlock detection for driven chaos runs.
//!
//! A fuzzed plan can wedge a run outright — suspend a lock holder
//! indefinitely and every queued waiter behind it waits forever. Without
//! detection that run burns its whole deadline (or, with no deadline, hangs
//! the process). The driver's detected mode instead watches a **progress
//! stamp** between polls and, once the run has been quiescent for a full
//! window with no injection still able to unwedge it, stops early with a
//! structured [`DeadlockReport`].
//!
//! Raw dispatched-event counts cannot serve as the stamp: scheduler quantum
//! ticks re-arm themselves whenever more threads are alive than cores, and
//! spin/backoff backends keep timers firing in a wedged run. The stamp is
//! therefore *lock-protocol* progress — grants plus trylock failures plus
//! finished threads — which a deadlocked run cannot advance.
//!
//! Declaring a deadlock additionally requires at least one **runnable**
//! pending waiter: a run whose only blocked threads are themselves suspended
//! is an injection-induced idle wedge, reported by the liveness oracle (the
//! suspension is the cause, not a lost grant), not as a deadlock.

use std::fmt::Write as _;

use locksim_machine::{Mach, ThreadId};

/// A structured verdict from the quiescence detector: the run stopped making
/// lock-protocol progress with runnable waiters still blocked and nothing
/// left in the plan that could unwedge them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadlockReport {
    /// Cycle the detector declared the deadlock at.
    pub at: u64,
    /// Lock line of the first runnable blocked waiter (thread order).
    pub lock: u64,
    /// Number of runnable waiters pending when progress stopped.
    pub waiters: u32,
    /// Human-readable blocking-chain dump: each wedged lock with its
    /// runnable waiters and current holders (suspension noted).
    pub chain: String,
}

/// The driver's between-polls progress measure: lock-protocol completions
/// (each thread's grants plus trylock failures, which sum to
/// `locks_granted + locks_failed`) plus finished threads. Strictly monotone
/// in a live run, frozen in a wedged one.
pub(crate) fn progress_stamp(m: &Mach) -> (u64, u64) {
    let (mut completions, mut finished) = (0, 0);
    for i in 0..m.n_threads() {
        let t = ThreadId(i as u32);
        let stats = m.thread_stats(t);
        completions += stats.acquires + stats.fails;
        finished += u64::from(m.is_finished(t));
    }
    (completions, finished)
}

/// Whether every unfinished thread is suspended — the idle-wedge case where
/// nothing can ever happen again but no runnable waiter exists.
pub(crate) fn all_unfinished_suspended(m: &Mach) -> bool {
    (0..m.n_threads()).all(|i| {
        let t = ThreadId(i as u32);
        m.is_finished(t) || m.is_suspended(t)
    })
}

/// Snapshots the waiting graph at cycle `at`. Returns a report when at
/// least one runnable (non-suspended) waiter is blocked, `None` otherwise.
pub(crate) fn snapshot(m: &Mach, at: u64) -> Option<DeadlockReport> {
    let waiters = m.pending_waiters();
    let runnable: Vec<_> = waiters.iter().filter(|w| !w.suspended).collect();
    let first = runnable.first()?;

    // One chain line per wedged lock, in first-waiter order.
    let mut chain = String::new();
    let mut seen_locks = Vec::new();
    for w in &runnable {
        if seen_locks.contains(&w.lock) {
            continue;
        }
        seen_locks.push(w.lock);
        if !chain.is_empty() {
            chain.push('\n');
        }
        let _ = write!(chain, "lock {:#x}: waiters", w.lock.0);
        for v in runnable.iter().filter(|v| v.lock == w.lock) {
            let _ = write!(
                chain,
                " t{}({})",
                v.thread.0,
                if v.write { "W" } else { "R" }
            );
        }
        let holders = m.holders_of(w.lock);
        if holders.is_empty() {
            chain.push_str("; no holder (lost grant)");
        } else {
            chain.push_str("; held by");
            for h in holders {
                let _ = write!(chain, " t{}", h.0);
                if m.is_suspended(h) {
                    chain.push_str(" (suspended)");
                }
            }
        }
    }

    Some(DeadlockReport {
        at,
        lock: first.lock.0,
        waiters: runnable.len() as u32,
        chain,
    })
}
