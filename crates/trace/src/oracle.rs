//! Streaming liveness and fairness oracles.
//!
//! [`Oracles`] judges a run while it runs. Armed on a
//! [`Tracer`](crate::Tracer), it is fed every record the machine makes,
//! whether or not the ring keeps it, and checks two properties:
//!
//! * **liveness** — every lock request is granted (or resolved as a trylock
//!   failure) within `horizon` cycles of *effective* wait, where cycles the
//!   waiter spent suspended by fault injection are exempt;
//! * **fairness** — no waiter is overtaken by more than `fairness_k`
//!   later-requesting grants while runnable (overtaking a *suspended* waiter
//!   is by design — the LCU passes grants through a descheduled thread).
//!
//! Suspension windows come from the fault driver's own [`SUSPEND`] and
//! [`RESUME`] [`TraceKind::FaultInject`] records. Exclusion has no oracle
//! here: the machine's exclusion checker aborts a run at the grant that
//! breaks it.
//!
//! A grant record can arrive before its stamp: the LCU records a grant
//! `lcu_latency` cycles before it takes effect, and the fault driver applies
//! injections after every event of its polling cycle. So a suspension can
//! open inside a grant's wait after the grant was recorded. The oracles
//! therefore judge records in arrival order but hold each grant back until a
//! record stamped later than the grant shows that no window can still open
//! or close before it; [`Oracles::finish`] judges whatever is left once
//! every window is known. Verdicts match a replay of the whole history.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::record::{TraceEvent, TraceKind};

/// The [`TraceKind::FaultInject`] label of a suspension; it opens the
/// thread's suspension window.
pub const SUSPEND: &str = "suspend";

/// The [`TraceKind::FaultInject`] label of a resume; it closes the
/// thread's open suspension window.
pub const RESUME: &str = "resume";

/// One oracle violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Violation {
    /// Which oracle fired: "liveness" or "fairness".
    pub oracle: &'static str,
    /// Lock line address the violation concerns.
    pub lock: u64,
    /// The wronged thread.
    pub thread: u32,
    /// Magnitude: effective cycles waited (liveness) or overtake count
    /// (fairness).
    pub value: u64,
    /// Cycle the violation was established at.
    pub at: u64,
}

/// Per-thread suspension intervals, so the oracles can exempt windows in
/// which a thread could not possibly take a grant.
#[derive(Debug, Clone, Default)]
struct Windows {
    /// thread → `(start, end)` windows; an open window has `end` `None`
    /// (suspended through the end of the run).
    per_thread: BTreeMap<u32, Vec<(u64, Option<u64>)>>,
}

impl Windows {
    fn open(&mut self, thread: u32, at: u64) {
        self.per_thread.entry(thread).or_default().push((at, None));
    }

    fn close(&mut self, thread: u32, at: u64) {
        if let Some((_, end @ None)) = self
            .per_thread
            .get_mut(&thread)
            .and_then(|ws| ws.last_mut())
        {
            *end = Some(at);
        }
    }

    /// Whether `thread` was suspended at `cycle`.
    fn suspended_at(&self, thread: u32, cycle: u64) -> bool {
        self.per_thread.get(&thread).is_some_and(|ws| {
            ws.iter()
                .any(|&(s, e)| s <= cycle && e.is_none_or(|e| cycle < e))
        })
    }

    /// Cycles of `[from, to)` during which `thread` was suspended.
    fn overlap(&self, thread: u32, from: u64, to: u64) -> u64 {
        let Some(ws) = self.per_thread.get(&thread) else {
            return 0;
        };
        ws.iter()
            .map(|&(s, e)| {
                let e = e.unwrap_or(u64::MAX);
                e.min(to).saturating_sub(s.max(from))
            })
            .sum()
    }
}

/// One outstanding lock request.
#[derive(Debug, Clone, Copy)]
struct Waiter {
    /// Cycle of the request: liveness measures the wait from here.
    requested: u64,
    /// Cycle fairness compares queue positions by: the request, or the
    /// waiter's last migration.
    since: u64,
    /// Later-requesting grants that overtook the waiter since `since`.
    overtakes: u64,
}

/// The liveness and fairness oracles of one run, fed record by record.
///
/// A fairness violation is reported once, when a waiter's overtake count
/// first exceeds `fairness_k`. Two classes of overtake are exempt because
/// no protocol could have granted the waiter instead: the waiter was
/// suspended, or off its core (preempted or mid-migration); and a migration
/// re-baselines the waiter at the migration cycle.
#[derive(Debug, Clone)]
pub struct Oracles {
    horizon: u64,
    fairness_k: u64,
    /// Latest stamp of a record made at the present. Records stamped at
    /// the present arrive in time order, so no suspension window can open
    /// or close before this cycle any more.
    clock: u64,
    /// Lock and scheduling records not judged yet, oldest first. Only a
    /// grant stamped at or after `clock` waits, and the records behind it.
    queue: VecDeque<TraceEvent>,
    windows: Windows,
    /// lock → thread → its outstanding request.
    waiting: BTreeMap<u64, BTreeMap<u32, Waiter>>,
    /// Threads currently off their core (unknown threads count as on).
    off_core: BTreeSet<u32>,
    liveness: Vec<Violation>,
    fairness: Vec<Violation>,
}

impl Oracles {
    /// Oracles with a liveness bound of `horizon` effective wait cycles and
    /// a fairness bound of `fairness_k` overtakes.
    pub fn new(horizon: u64, fairness_k: u64) -> Self {
        Oracles {
            horizon,
            fairness_k,
            clock: 0,
            queue: VecDeque::new(),
            windows: Windows::default(),
            waiting: BTreeMap::new(),
            off_core: BTreeSet::new(),
            liveness: Vec::new(),
            fairness: Vec::new(),
        }
    }

    /// Feeds one record, in the order the machine made it.
    pub fn observe(&mut self, e: &TraceEvent) {
        let t = e.t.cycles();
        match e.kind {
            TraceKind::FaultInject { fault, thread, .. } => match fault {
                SUSPEND => self.windows.open(thread, t),
                RESUME => self.windows.close(thread, t),
                _ => {}
            },
            TraceKind::LockRequest { .. }
            | TraceKind::LockGrant { .. }
            | TraceKind::LockFail { .. }
            | TraceKind::SchedRun { .. }
            | TraceKind::SchedPreempt { .. }
            | TraceKind::SchedMigrate { .. } => self.queue.push_back(*e),
            _ => return,
        }
        // A grant is stamped when it takes effect, possibly ahead of the
        // present; every other record read here is stamped at the present.
        if !matches!(e.kind, TraceKind::LockGrant { .. }) {
            self.clock = self.clock.max(t);
        }
        let clock = self.clock;
        while let Some(e) = self.queue.pop_front_if(|e| {
            !matches!(e.kind, TraceKind::LockGrant { .. }) || e.t.cycles() < clock
        }) {
            self.judge(&e);
        }
    }

    fn judge(&mut self, e: &TraceEvent) {
        let now = e.t.cycles();
        match e.kind {
            TraceKind::LockRequest { lock, thread, .. } => {
                self.waiting
                    .entry(lock)
                    .or_default()
                    .entry(thread)
                    .or_insert(Waiter {
                        requested: now,
                        since: now,
                        overtakes: 0,
                    });
            }
            TraceKind::LockGrant { lock, thread, .. } => {
                let Some(ws) = self.waiting.get_mut(&lock) else {
                    return;
                };
                let Some(granted) = ws.remove(&thread) else {
                    return;
                };
                let req = granted.requested;
                let eff = (now - req).saturating_sub(self.windows.overlap(thread, req, now));
                if eff > self.horizon {
                    self.liveness.push(Violation {
                        oracle: "liveness",
                        lock,
                        thread,
                        value: eff,
                        at: now,
                    });
                }
                // Each grant to a later requester overtakes every runnable
                // earlier waiter once.
                for (&other, w) in ws.iter_mut() {
                    if w.since < granted.since
                        && !self.windows.suspended_at(other, now)
                        && !self.off_core.contains(&other)
                    {
                        w.overtakes += 1;
                        if w.overtakes == self.fairness_k.saturating_add(1) {
                            self.fairness.push(Violation {
                                oracle: "fairness",
                                lock,
                                thread: other,
                                value: w.overtakes,
                                at: now,
                            });
                        }
                    }
                }
            }
            // A resolved trylock is not a liveness failure.
            TraceKind::LockFail { lock, thread } => {
                if let Some(ws) = self.waiting.get_mut(&lock) {
                    ws.remove(&thread);
                }
            }
            TraceKind::SchedRun { thread, .. } => {
                self.off_core.remove(&thread);
            }
            TraceKind::SchedPreempt { thread, .. } => {
                self.off_core.insert(thread);
            }
            // The LCU reissues a migrated request at the queue tail, so
            // overtakes of its old position are expected: re-baseline.
            TraceKind::SchedMigrate { thread, .. } => {
                self.off_core.insert(thread);
                for w in self
                    .waiting
                    .values_mut()
                    .filter_map(|ws| ws.get_mut(&thread))
                {
                    w.since = now;
                    w.overtakes = 0;
                }
            }
            _ => {}
        }
    }

    /// Ends the run at `end_cycle` and returns every violation: liveness
    /// first, then fairness, each in the order it was established. A
    /// request still pending is charged the wait up to `end_cycle`.
    pub fn finish(mut self, end_cycle: u64) -> Vec<Violation> {
        while let Some(e) = self.queue.pop_front() {
            self.judge(&e);
        }
        for (&lock, ws) in &self.waiting {
            for (&thread, w) in ws {
                let eff = end_cycle
                    .saturating_sub(w.requested)
                    .saturating_sub(self.windows.overlap(thread, w.requested, end_cycle));
                if eff > self.horizon {
                    self.liveness.push(Violation {
                        oracle: "liveness",
                        lock,
                        thread,
                        value: eff,
                        at: end_cycle,
                    });
                }
            }
        }
        self.liveness.extend(self.fairness);
        self.liveness
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Ep;
    use locksim_engine::Time;

    fn ev(at: u64, kind: TraceKind) -> TraceEvent {
        TraceEvent {
            t: Time::from_cycles(at),
            ep: Ep::Global,
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

    fn grant(at: u64, lock: u64, thread: u32) -> TraceEvent {
        ev(
            at,
            TraceKind::LockGrant {
                lock,
                thread,
                write: true,
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

    fn fault(at: u64, fault: &'static str, thread: u32) -> TraceEvent {
        ev(
            at,
            TraceKind::FaultInject {
                fault,
                thread,
                arg: 0,
            },
        )
    }

    /// Feeds `events` in order and finishes at `end_cycle`.
    fn judge(horizon: u64, k: u64, events: &[TraceEvent], end_cycle: u64) -> Vec<Violation> {
        let mut o = Oracles::new(horizon, k);
        for e in events {
            o.observe(e);
        }
        o.finish(end_cycle)
    }

    fn liveness(horizon: u64, events: &[TraceEvent], end_cycle: u64) -> Vec<Violation> {
        judge(horizon, u64::MAX, events, end_cycle)
    }

    fn fairness(k: u64, events: &[TraceEvent]) -> Vec<Violation> {
        judge(u64::MAX, k, events, 0)
    }

    /// Thread 9 requests first; threads `ts` then each request, are
    /// granted and release, 10 cycles apart from `at` on.
    fn overtaken_by(events: &mut Vec<TraceEvent>, at: &mut u64, ts: std::ops::RangeInclusive<u32>) {
        for t in ts {
            events.push(req(*at + 1, 0x40, t));
            events.push(grant(*at + 2, 0x40, t));
            events.push(release(*at + 3, 0x40, t));
            *at += 10;
        }
    }

    #[test]
    fn windows_overlap_and_membership() {
        let mut ws = Windows::default();
        ws.open(1, 100);
        ws.close(1, 300);
        ws.open(1, 500);
        assert!(ws.suspended_at(1, 100));
        assert!(ws.suspended_at(1, 299));
        assert!(!ws.suspended_at(1, 300));
        assert!(!ws.suspended_at(1, 400));
        assert!(ws.suspended_at(1, 10_000), "open window never ends");
        assert!(!ws.suspended_at(2, 100));
        assert_eq!(ws.overlap(1, 0, 1_000), 200 + 500);
        assert_eq!(ws.overlap(1, 200, 250), 50);
        assert_eq!(ws.overlap(1, 300, 500), 0);
        assert_eq!(ws.overlap(2, 0, 1_000), 0);
    }

    #[test]
    fn liveness_flags_slow_grant_and_pending_request() {
        let events = [req(0, 0x40, 1), grant(5_000, 0x40, 1), req(100, 0x40, 2)];
        let v = liveness(1_000, &events, 9_000);
        assert_eq!(v.len(), 2);
        assert_eq!((v[0].thread, v[0].value, v[0].at), (1, 5_000, 5_000));
        assert_eq!((v[1].thread, v[1].value, v[1].at), (2, 8_900, 9_000));
    }

    #[test]
    fn liveness_exempts_suspension_windows() {
        // Thread 1 suspended for 4 800 of its 5 000-cycle wait.
        let events = [
            req(0, 0x40, 1),
            fault(100, SUSPEND, 1),
            fault(4_900, RESUME, 1),
            grant(5_000, 0x40, 1),
        ];
        assert!(liveness(1_000, &events, 5_000).is_empty());
        // Without the exemption the same history violates.
        let unsuspended = [events[0], events[3]];
        assert_eq!(liveness(1_000, &unsuspended, 5_000).len(), 1);
    }

    #[test]
    fn liveness_counts_a_suspension_that_opens_after_the_grant_record() {
        // The grant is recorded ahead of its 1 050 stamp, and thread 1 is
        // then suspended at 1 000: 50 of its 1 050 cycles are exempt.
        let events = [
            req(0, 0x40, 1),
            grant(1_050, 0x40, 1),
            fault(1_000, SUSPEND, 1),
        ];
        assert!(liveness(1_000, &events, 2_000).is_empty());
    }

    #[test]
    fn liveness_ignores_resolved_trylock() {
        let events = [
            req(0, 0x40, 1),
            ev(
                50,
                TraceKind::LockFail {
                    lock: 0x40,
                    thread: 1,
                },
            ),
        ];
        assert!(liveness(1_000, &events, 100_000).is_empty());
    }

    #[test]
    fn fairness_flags_waiter_overtaken_past_k() {
        // Thread 9 requests first, then threads 1..=3 each request later and
        // get granted twice; 6 overtakes > k=5 → one violation at the 6th.
        let mut events = vec![req(0, 0x40, 9)];
        let mut at = 10;
        overtaken_by(&mut events, &mut at, 1..=3);
        overtaken_by(&mut events, &mut at, 1..=3);
        let v = fairness(5, &events);
        assert_eq!(v.len(), 1);
        assert_eq!((v[0].oracle, v[0].thread, v[0].value), ("fairness", 9, 6));
        // k=8 tolerates the same history.
        assert!(fairness(8, &events).is_empty());
    }

    #[test]
    fn fairness_exempts_suspended_waiter() {
        let mut events = vec![req(0, 0x40, 9), fault(5, SUSPEND, 9)];
        let mut at = 10;
        overtaken_by(&mut events, &mut at, 1..=6);
        assert!(
            fairness(2, &events).is_empty(),
            "overtaking a suspended waiter is not a fairness violation"
        );
        events.remove(1);
        assert_eq!(fairness(2, &events).len(), 1);
    }

    #[test]
    fn fairness_counts_a_suspension_that_opens_after_the_grant_record() {
        // Thread 1 overtakes the earlier waiter 9 with a grant recorded
        // ahead of its 13 stamp; thread 9 is suspended at 12, before the
        // grant takes effect, and a request at 20 moves the clock past it.
        let mut events = vec![
            req(0, 0x40, 9),
            req(10, 0x40, 1),
            grant(13, 0x40, 1),
            fault(12, SUSPEND, 9),
            req(20, 0x40, 2),
        ];
        assert!(fairness(0, &events).is_empty());
        events.remove(3);
        assert_eq!(fairness(0, &events).len(), 1);
    }

    #[test]
    fn fairness_rebaselines_migrated_waiter() {
        // Thread 9 waits, migrates mid-queue (reissuing at the tail), then
        // is overtaken twice more: only post-migration overtakes count.
        let mut events = vec![req(0, 0x40, 9)];
        let mut at = 10;
        overtaken_by(&mut events, &mut at, 1..=4);
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
        overtaken_by(&mut events, &mut at, 5..=6);
        assert!(
            fairness(4, &events).is_empty(),
            "6 total overtakes, but the migration resets after 4; neither \
             queue position exceeds k=4"
        );
        // With k=1 each queue position violates independently.
        assert_eq!(fairness(1, &events).len(), 2);
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
        overtaken_by(&mut events, &mut at, 1..=4);
        assert!(fairness(1, &events).is_empty());
        // Once rescheduled, overtakes count again.
        events.push(ev(at, TraceKind::SchedRun { thread: 9, core: 1 }));
        overtaken_by(&mut events, &mut at, 5..=6);
        assert_eq!(fairness(1, &events).len(), 1);
    }
}
