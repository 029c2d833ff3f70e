//! Post-hoc liveness / fairness / exclusion oracles.
//!
//! The oracles replay the structured trace ring after a driven run and check
//! three properties:
//!
//! * **liveness** — every lock request is granted (or resolved as a trylock
//!   failure) within the plan's horizon of *effective* wait, where cycles the
//!   waiter spent suspended by fault injection are exempt;
//! * **fairness** — no waiter is overtaken by more than `fairness_k`
//!   later-requesting grants while runnable (overtaking a *suspended* waiter
//!   is by design — the LCU passes grants through a descheduled thread);
//! * **exclusion** — no grant interleaving ever puts two writers, or a
//!   writer and a reader, inside the same lock at once.
//!
//! Checkers are pure functions over an event slice so they can be unit
//! tested on synthetic histories; [`check_world`] wires them to a live
//! [`World`] and writes violations back as [`TraceKind::OracleViolation`]
//! records plus per-lock `oracle_violation` lockstat bumps.

use std::collections::BTreeMap;

use locksim_machine::{TraceEp, TraceEvent, TraceKind, World};

use crate::driver::SuspensionWindows;
use crate::plan::FaultPlan;

/// One oracle violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Violation {
    /// Which oracle fired: "liveness", "fairness", or "exclusion".
    pub oracle: &'static str,
    /// Lock line address the violation concerns.
    pub lock: u64,
    /// The wronged thread.
    pub thread: u32,
    /// Magnitude: effective cycles waited (liveness), overtake count
    /// (fairness), or the conflicting thread (exclusion).
    pub value: u64,
    /// Cycle the violation was established at.
    pub at: u64,
}

/// Checks that every request resolves within `horizon` effective wait
/// cycles. A request still pending when the run ended at `end_cycle` is
/// charged the wait up to that point.
pub fn check_liveness(
    events: &[TraceEvent],
    horizon: u64,
    windows: &SuspensionWindows,
    end_cycle: u64,
) -> Vec<Violation> {
    let mut pending: BTreeMap<(u64, u32), u64> = BTreeMap::new();
    let mut out = Vec::new();
    for e in events {
        let now = e.t.cycles();
        match e.kind {
            TraceKind::LockRequest { lock, thread, .. } => {
                pending.entry((lock, thread)).or_insert(now);
            }
            TraceKind::LockGrant { lock, thread, .. } => {
                if let Some(req) = pending.remove(&(lock, thread)) {
                    let eff = (now - req).saturating_sub(windows.overlap(thread, req, now));
                    if eff > horizon {
                        out.push(Violation {
                            oracle: "liveness",
                            lock,
                            thread,
                            value: eff,
                            at: now,
                        });
                    }
                }
            }
            TraceKind::LockFail { lock, thread } => {
                // A resolved trylock is not a liveness failure.
                pending.remove(&(lock, thread));
            }
            _ => {}
        }
    }
    for (&(lock, thread), &req) in &pending {
        let eff = end_cycle
            .saturating_sub(req)
            .saturating_sub(windows.overlap(thread, req, end_cycle));
        if eff > horizon {
            out.push(Violation {
                oracle: "liveness",
                lock,
                thread,
                value: eff,
                at: end_cycle,
            });
        }
    }
    out
}

/// Checks that no runnable waiter is overtaken more than `k` times: each
/// grant to a thread that requested *later* than a still-pending waiter
/// counts one overtake against that waiter. Two classes of overtake are
/// exempt because no protocol could have granted the waiter instead:
///
/// * the waiter was suspended by fault injection, or off-core (preempted
///   or mid-migration — a context switch costs cycles, and grants pass
///   through an absent requester by design);
/// * the waiter migrated cores mid-queue, which re-baselines it at the
///   migration cycle — the LCU deliberately reissues a migrated request
///   at the queue tail, so overtakes of its *old* position are expected.
///
/// A violation is reported once, when a waiter's count first exceeds `k`.
pub fn check_fairness(
    events: &[TraceEvent],
    k: u64,
    windows: &SuspensionWindows,
) -> Vec<Violation> {
    // lock → waiter thread → (request cycle, overtakes so far)
    let mut waiting: BTreeMap<u64, BTreeMap<u32, (u64, u64)>> = BTreeMap::new();
    // thread → currently installed on a core (unknown threads count as on).
    let mut off_core: std::collections::BTreeSet<u32> = std::collections::BTreeSet::new();
    let mut out = Vec::new();
    for e in events {
        let now = e.t.cycles();
        match e.kind {
            TraceKind::LockRequest { lock, thread, .. } => {
                waiting
                    .entry(lock)
                    .or_default()
                    .entry(thread)
                    .or_insert((now, 0));
            }
            TraceKind::LockGrant { lock, thread, .. } => {
                let Some(ws) = waiting.get_mut(&lock) else {
                    continue;
                };
                let Some((granted_req, _)) = ws.remove(&thread) else {
                    continue;
                };
                for (&other, (other_req, overtakes)) in ws.iter_mut() {
                    if *other_req < granted_req
                        && !windows.suspended_at(other, now)
                        && !off_core.contains(&other)
                    {
                        *overtakes += 1;
                        if *overtakes == k + 1 {
                            out.push(Violation {
                                oracle: "fairness",
                                lock,
                                thread: other,
                                value: *overtakes,
                                at: now,
                            });
                        }
                    }
                }
            }
            TraceKind::LockFail { lock, thread } => {
                if let Some(ws) = waiting.get_mut(&lock) {
                    ws.remove(&thread);
                }
            }
            TraceKind::SchedRun { thread, .. } => {
                off_core.remove(&thread);
            }
            TraceKind::SchedPreempt { thread, .. } => {
                off_core.insert(thread);
            }
            TraceKind::SchedMigrate { thread, .. } => {
                off_core.insert(thread);
                for ws in waiting.values_mut() {
                    if let Some(slot) = ws.get_mut(&thread) {
                        *slot = (now, 0);
                    }
                }
            }
            _ => {}
        }
    }
    out
}

/// Checks reader/writer exclusion over the grant/release history: a write
/// grant while any holder exists, or a read grant while a writer holds, is
/// a violation naming the conflicting holder in `value`.
pub fn check_exclusion(events: &[TraceEvent]) -> Vec<Violation> {
    // lock → holder thread → write?
    let mut holders: BTreeMap<u64, BTreeMap<u32, bool>> = BTreeMap::new();
    let mut out = Vec::new();
    for e in events {
        let now = e.t.cycles();
        match e.kind {
            TraceKind::LockGrant {
                lock,
                thread,
                write,
                ..
            } => {
                let hs = holders.entry(lock).or_default();
                let conflict = hs
                    .iter()
                    .find(|&(&h, &hw)| h != thread && (write || hw))
                    .map(|(&h, _)| h);
                if let Some(h) = conflict {
                    out.push(Violation {
                        oracle: "exclusion",
                        lock,
                        thread,
                        value: u64::from(h),
                        at: now,
                    });
                }
                hs.insert(thread, write);
            }
            TraceKind::LockRelease { lock, thread, .. } => {
                if let Some(hs) = holders.get_mut(&lock) {
                    hs.remove(&thread);
                }
            }
            _ => {}
        }
    }
    out
}

/// Runs every oracle against `w`'s trace ring, records each violation back
/// into the ring as an [`TraceKind::OracleViolation`] (plus a per-lock
/// `oracle_violation` lockstat bump and the machine-wide `oracle_violations`
/// counter), and returns them.
pub fn check_world(
    w: &mut World,
    plan: &FaultPlan,
    windows: &SuspensionWindows,
    end_cycle: u64,
) -> Vec<Violation> {
    let events = w.mach().tracer_mut().contiguous();
    let mut violations = check_exclusion(events);
    violations.extend(check_liveness(events, plan.horizon, windows, end_cycle));
    violations.extend(check_fairness(events, plan.fairness_k, windows));
    let m = w.mach();
    for v in &violations {
        m.metrics_mut().incr("oracle_violations");
        m.lockstat_mut().bump(v.lock, "oracle_violation");
        let v = *v;
        m.trace(|now| TraceEvent {
            t: now,
            ep: TraceEp::Thread(v.thread),
            kind: TraceKind::OracleViolation {
                oracle: v.oracle,
                lock: v.lock,
                thread: v.thread,
                value: v.value,
            },
        });
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use locksim_engine::Time;

    fn ev(at: u64, kind: TraceKind) -> TraceEvent {
        TraceEvent {
            t: Time::from_cycles(at),
            ep: TraceEp::Global,
            kind,
        }
    }

    fn req(at: u64, lock: u64, thread: u32) -> TraceEvent {
        ev(
            at,
            TraceKind::LockRequest {
                lock,
                thread,
                write: true,
            },
        )
    }

    fn grant(at: u64, lock: u64, thread: u32, write: bool) -> TraceEvent {
        ev(
            at,
            TraceKind::LockGrant {
                lock,
                thread,
                write,
                wait: 0,
            },
        )
    }

    fn release(at: u64, lock: u64, thread: u32) -> TraceEvent {
        ev(
            at,
            TraceKind::LockRelease {
                lock,
                thread,
                write: true,
            },
        )
    }

    #[test]
    fn liveness_flags_slow_grant_and_pending_request() {
        let events = vec![
            req(0, 0x40, 1),
            grant(5_000, 0x40, 1, true),
            req(100, 0x40, 2),
        ];
        let ws = SuspensionWindows::default();
        let v = check_liveness(&events, 1_000, &ws, 9_000);
        assert_eq!(v.len(), 2);
        assert_eq!((v[0].thread, v[0].value, v[0].at), (1, 5_000, 5_000));
        assert_eq!((v[1].thread, v[1].value, v[1].at), (2, 8_900, 9_000));
    }

    #[test]
    fn liveness_exempts_suspension_windows() {
        let mut ws = SuspensionWindows::default();
        // Thread 1 suspended for 4 800 of its 5 000-cycle wait.
        ws.open(1, 100);
        ws.close(1, 4_900);
        let events = vec![req(0, 0x40, 1), grant(5_000, 0x40, 1, true)];
        assert!(check_liveness(&events, 1_000, &ws, 5_000).is_empty());
        // Without the exemption the same history violates.
        let none = SuspensionWindows::default();
        assert_eq!(check_liveness(&events, 1_000, &none, 5_000).len(), 1);
    }

    #[test]
    fn liveness_ignores_resolved_trylock() {
        let events = vec![
            req(0, 0x40, 1),
            ev(
                50,
                TraceKind::LockFail {
                    lock: 0x40,
                    thread: 1,
                },
            ),
        ];
        let ws = SuspensionWindows::default();
        assert!(check_liveness(&events, 1_000, &ws, 100_000).is_empty());
    }

    #[test]
    fn fairness_flags_waiter_overtaken_past_k() {
        // Thread 9 requests first, then threads 1..=3 each request later and
        // get granted twice; 6 overtakes > k=5 → one violation at the 6th.
        let mut events = vec![req(0, 0x40, 9)];
        let mut at = 10;
        for round in 0..2 {
            for t in 1..=3u32 {
                events.push(req(at, 0x40, t));
                events.push(grant(at + 1, 0x40, t, true));
                events.push(release(at + 2, 0x40, t));
                at += 10;
                let _ = round;
            }
        }
        let ws = SuspensionWindows::default();
        let v = check_fairness(&events, 5, &ws);
        assert_eq!(v.len(), 1);
        assert_eq!((v[0].oracle, v[0].thread, v[0].value), ("fairness", 9, 6));
        // k=8 tolerates the same history.
        assert!(check_fairness(&events, 8, &ws).is_empty());
    }

    #[test]
    fn fairness_exempts_suspended_waiter() {
        let mut events = vec![req(0, 0x40, 9)];
        let mut at = 10;
        for t in 1..=6u32 {
            events.push(req(at, 0x40, t));
            events.push(grant(at + 1, 0x40, t, true));
            events.push(release(at + 2, 0x40, t));
            at += 10;
        }
        let mut ws = SuspensionWindows::default();
        ws.open(9, 5);
        assert!(
            check_fairness(&events, 2, &ws).is_empty(),
            "overtaking a suspended waiter is not a fairness violation"
        );
        let none = SuspensionWindows::default();
        assert_eq!(check_fairness(&events, 2, &none).len(), 1);
    }

    #[test]
    fn fairness_rebaselines_migrated_waiter() {
        // Thread 9 waits, migrates mid-queue (reissuing at the tail), then
        // is overtaken twice more: only post-migration overtakes count.
        let mut events = vec![req(0, 0x40, 9)];
        let mut at = 10;
        for t in 1..=4u32 {
            events.push(req(at, 0x40, t));
            events.push(grant(at + 1, 0x40, t, true));
            events.push(release(at + 2, 0x40, t));
            at += 10;
        }
        events.push(ev(
            at,
            TraceKind::SchedMigrate {
                thread: 9,
                from: 0,
                to: 3,
            },
        ));
        // Transit completes: thread 9 lands on its new core.
        events.push(ev(at, TraceKind::SchedRun { thread: 9, core: 3 }));
        for t in 5..=6u32 {
            events.push(req(at + 1, 0x40, t));
            events.push(grant(at + 2, 0x40, t, true));
            events.push(release(at + 3, 0x40, t));
            at += 10;
        }
        let ws = SuspensionWindows::default();
        assert!(
            check_fairness(&events, 4, &ws).is_empty(),
            "6 total overtakes, but the migration resets after 4; neither \
             queue position exceeds k=4"
        );
        // With k=1 each queue position violates independently.
        assert_eq!(check_fairness(&events, 1, &ws).len(), 2);
    }

    #[test]
    fn fairness_exempts_off_core_waiter() {
        // Thread 9 waits, is preempted off its core, and is lapped while
        // absent; grants cannot reach an off-core thread, so those
        // overtakes don't count until it runs again.
        let mut events = vec![
            req(0, 0x40, 9),
            ev(5, TraceKind::SchedPreempt { thread: 9, core: 0 }),
        ];
        let mut at = 10;
        for t in 1..=4u32 {
            events.push(req(at, 0x40, t));
            events.push(grant(at + 1, 0x40, t, true));
            events.push(release(at + 2, 0x40, t));
            at += 10;
        }
        let ws = SuspensionWindows::default();
        assert!(check_fairness(&events, 1, &ws).is_empty());
        // Once rescheduled, overtakes count again.
        events.push(ev(at, TraceKind::SchedRun { thread: 9, core: 1 }));
        for t in 5..=6u32 {
            events.push(req(at + 1, 0x40, t));
            events.push(grant(at + 2, 0x40, t, true));
            events.push(release(at + 3, 0x40, t));
            at += 10;
        }
        assert_eq!(check_fairness(&events, 1, &ws).len(), 1);
    }

    #[test]
    fn exclusion_flags_writer_overlap_but_allows_readers() {
        let shared_readers = vec![
            grant(10, 0x40, 1, false),
            grant(11, 0x40, 2, false),
            release(20, 0x40, 1),
            release(21, 0x40, 2),
        ];
        assert!(check_exclusion(&shared_readers).is_empty());
        let writer_overlap = vec![grant(10, 0x40, 1, true), grant(11, 0x40, 2, false)];
        let v = check_exclusion(&writer_overlap);
        assert_eq!(v.len(), 1);
        assert_eq!(
            (v[0].oracle, v[0].thread, v[0].value, v[0].at),
            ("exclusion", 2, 1, 11)
        );
    }

    #[test]
    fn exclusion_clears_on_release() {
        let events = vec![
            grant(10, 0x40, 1, true),
            release(20, 0x40, 1),
            grant(30, 0x40, 2, true),
        ];
        assert!(check_exclusion(&events).is_empty());
    }
}
