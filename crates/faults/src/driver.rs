//! The fault driver: steps a [`World`] in fixed polling increments and
//! applies a [`FaultPlan`]'s injections at exact cycles, so a faulted run
//! stays byte-reproducible under a fixed seed. The liveness and fairness
//! [`Oracles`] ride along on the machine's tracer and judge the run as it
//! runs.

use std::collections::BTreeMap;

use locksim_machine::{BackendFault, RunExit, ThreadId, TraceEp, TraceEvent, TraceKind, World};
use locksim_trace::{Oracles, Violation};

use crate::detect::{self, DeadlockReport};
use crate::plan::{FaultPlan, Inject, Trigger};

/// One injection the driver attempted, in application order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Applied {
    /// Cycle the injection was applied at.
    pub at: u64,
    /// The injection.
    pub inject: Inject,
    /// Whether the world/backend accepted it (an FLT eviction on a backend
    /// without an FLT, or a suspend of a finished thread, is declined).
    pub applied: bool,
}

/// What a driven run produced: how it ended, where the clock stopped, every
/// injection attempted, and the oracles' verdicts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DriveOutcome {
    /// How the run ended. [`RunExit::TimeLimit`] after the plan deadline
    /// means work was still outstanding — the liveness oracle decides
    /// whether that is a violation.
    pub exit: RunExit,
    /// Simulated cycle the drive stopped at.
    pub end_cycle: u64,
    /// Injections in application order.
    pub applied: Vec<Applied>,
    /// Oracle violations: liveness, then fairness, each in the order it was
    /// established.
    pub violations: Vec<Violation>,
    /// The quiescence detector's verdict, when [`FaultDriver::run_detected`]
    /// cut the run short. Always `None` from [`FaultDriver::run`].
    pub deadlock: Option<DeadlockReport>,
}

impl DriveOutcome {
    /// Number of injections the world/backend actually accepted.
    pub fn injections_applied(&self) -> u64 {
        self.applied.iter().filter(|a| a.applied).count() as u64
    }

    /// Number of violations `oracle` ("liveness" or "fairness") reported.
    pub fn violations_of(&self, oracle: &str) -> usize {
        self.violations
            .iter()
            .filter(|v| v.oracle == oracle)
            .count()
    }
}

/// Drives one [`World`] through a [`FaultPlan`].
///
/// The driver holds the whole state of a driven run besides the world, and
/// advances it one poll at a time. Each poll it stands at, the world has
/// run to exactly that cycle and the poll's injections are not yet
/// applied; poll 0 is the freshly built world. A copy of the driver taken
/// there, with a fork of the world ([`World::fork`]), resumes the run from
/// that poll: that is how [`crate::resume`] replays a plan's run from a
/// checkpoint instead of from cycle 0.
#[derive(Debug, Clone)]
pub struct FaultDriver {
    plan: FaultPlan,
    /// The deadlock detector's quiescence window; 0 disarms it.
    quiesce: u64,
    /// Whether each plan event was attempted.
    fired: Vec<bool>,
    /// Scheduled auto-resumes, keyed by due cycle then arming order.
    auto_resumes: BTreeMap<(u64, u64), u32>,
    auto_seq: u64,
    /// Injections attempted so far, in application order.
    applied: Vec<Applied>,
    /// The poll the driver stands at.
    at: u64,
    /// How the last `run_until_cycle` ended.
    exit: RunExit,
    /// Lock-protocol progress plus the applied-record count, and the poll
    /// it last moved at. Injection activity is part of the stamp: an
    /// auto-resume landing in the same poll as the quiescence check must
    /// reset the clock, or the just-resumed thread gets flagged before it
    /// has run a single cycle.
    stamp: ((u64, u64), usize),
    stamp_cycle: u64,
    /// The first poll at which the detector consulted
    /// [`FaultDriver::injections_pending`].
    first_pending_check: Option<u64>,
    deadlock: Option<DeadlockReport>,
    /// The run is over: the world finished, the detector stopped it, or
    /// the deadline poll was handled.
    ended: bool,
}

impl FaultDriver {
    /// Prepares a driver for `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        FaultDriver {
            fired: vec![false; plan.events.len()],
            plan,
            quiesce: 0,
            auto_resumes: BTreeMap::new(),
            auto_seq: 0,
            applied: Vec::new(),
            at: 0,
            exit: RunExit::TimeLimit,
            stamp: ((0, 0), 0),
            stamp_cycle: 0,
            first_pending_check: None,
            deadlock: None,
            ended: false,
        }
    }

    /// Runs `w` until every thread finishes or the plan deadline passes,
    /// polling every `plan.poll` cycles to apply due injections, and judges
    /// it with the oracles at the plan's `horizon` and `fairness_k`. Each
    /// violation is written back as an `oracle_violations` counter bump, a
    /// per-lock `oracle_violation` lockstat bump and one
    /// [`TraceKind::OracleViolation`] record.
    pub fn run(&mut self, w: &mut World) -> DriveOutcome {
        self.run_detected(w, 0)
    }

    /// Like [`FaultDriver::run`], but with the quiescence deadlock detector
    /// armed: if lock-protocol progress stalls for `quiesce_cycles` with no
    /// injection still able to unwedge the run, the drive stops early —
    /// with a [`DeadlockReport`] in the outcome when runnable waiters are
    /// blocked, or silently for an injection-induced idle wedge (every
    /// unfinished thread suspended forever; the liveness oracle judges
    /// that). `quiesce_cycles` of 0 disables detection.
    pub fn run_detected(&mut self, w: &mut World, quiesce_cycles: u64) -> DriveOutcome {
        self.quiesce = quiesce_cycles;
        self.drive(w, |_, _| {})
    }

    /// The plan being driven.
    pub(crate) fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The poll the driver stands at; once the run is over, the poll it
    /// ended at.
    pub(crate) fn at(&self) -> u64 {
        self.at
    }

    /// How the last `run_until_cycle` ended.
    pub(crate) fn exit(&self) -> RunExit {
        self.exit
    }

    /// The first poll at which the detector consulted
    /// `injections_pending`, or `None` if it never did.
    pub(crate) fn first_pending_check(&self) -> Option<u64> {
        self.first_pending_check
    }

    /// A fresh driver for `plan` with this one's detector setting, standing
    /// at poll 0.
    pub(crate) fn restart(&self, plan: &FaultPlan) -> FaultDriver {
        FaultDriver {
            quiesce: self.quiesce,
            ..FaultDriver::new(plan.clone())
        }
    }

    /// This driver's state moved onto `plan`, whose run agrees with this
    /// one's up to the poll the driver stands at. `pairs[j]` names the event
    /// of this driver's plan that `plan`'s event `j` pairs with: a paired
    /// event keeps its attempt record, an unpaired one starts unattempted.
    pub(crate) fn rebase(&self, plan: &FaultPlan, pairs: &[Option<usize>]) -> FaultDriver {
        FaultDriver {
            plan: plan.clone(),
            fired: pairs
                .iter()
                .map(|p| p.is_some_and(|i| self.fired[i]))
                .collect(),
            auto_resumes: self.auto_resumes.clone(),
            applied: self.applied.clone(),
            deadlock: self.deadlock.clone(),
            ..*self
        }
    }

    /// Runs the plan from the poll the driver stands at to the end and
    /// judges the run. `at_poll` sees the driver and the world at every
    /// poll it stands at, before that poll's injections.
    pub(crate) fn drive(
        &mut self,
        w: &mut World,
        mut at_poll: impl FnMut(&FaultDriver, &World),
    ) -> DriveOutcome {
        let _prof = locksim_trace::prof::span("faults/drive");
        while !self.ended {
            at_poll(self, w);
            self.act(w);
            if !self.ended {
                self.advance(w);
            }
        }
        self.finish(w)
    }

    /// Handles the poll the driver stands at: applies due injections and,
    /// with detection armed, checks for quiescence.
    fn act(&mut self, w: &mut World) {
        let c = self.at;
        if c == 0 {
            w.mach()
                .tracer_mut()
                .arm_oracles(Oracles::new(self.plan.horizon, self.plan.fairness_k));
            // Cycle-0 injections (wire faults, initial pressure) land
            // before the first event fires.
            self.apply_due(w, 0);
            self.stamp = (detect::progress_stamp(w.mach_ref()), self.applied.len());
            self.stamp_cycle = 0;
            return;
        }
        self.apply_due(w, c);
        if self.quiesce == 0 {
            return;
        }
        let now_stamp = (detect::progress_stamp(w.mach_ref()), self.applied.len());
        if now_stamp != self.stamp {
            self.stamp = now_stamp;
            self.stamp_cycle = c;
            return;
        }
        if c - self.stamp_cycle < self.quiesce {
            return;
        }
        self.first_pending_check.get_or_insert(c);
        if self.injections_pending(c) {
            return;
        }
        if let Some(report) = detect::snapshot(w.mach_ref(), c) {
            let (lock, waiters) = (report.lock, report.waiters);
            w.mach().metrics_mut().incr("deadlocks_detected");
            w.mach().lockstat_mut().bump(lock, "deadlock");
            w.mach().trace(|now| TraceEvent {
                t: now,
                ep: TraceEp::Global,
                kind: TraceKind::Deadlock { lock, waiters },
            });
            self.deadlock = Some(report);
            self.ended = true;
        } else if detect::all_unfinished_suspended(w.mach_ref()) {
            // Nothing can ever run again; stop burning the deadline.
            self.ended = true;
        }
    }

    /// Runs the world to the next poll, or ends the run at the deadline or
    /// once every thread has finished.
    fn advance(&mut self, w: &mut World) {
        if self.at >= self.plan.deadline {
            self.ended = true;
            return;
        }
        self.at = (self.at + self.plan.poll.max(1)).min(self.plan.deadline);
        self.exit = w.run_until_cycle(self.at);
        if self.exit == RunExit::AllFinished {
            self.ended = true;
        }
    }

    /// Closes the oracles at the clock's final cycle and writes their
    /// violations back into the world.
    fn finish(&mut self, w: &mut World) -> DriveOutcome {
        let end_cycle = w.mach().now().cycles();
        let m = w.mach();
        let violations = m
            .tracer_mut()
            .take_oracles()
            .expect("the drive armed the oracles")
            .finish(end_cycle);
        for &v in &violations {
            m.metrics_mut().incr("oracle_violations");
            m.lockstat_mut().bump(v.lock, "oracle_violation");
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
        DriveOutcome {
            exit: self.exit,
            end_cycle,
            applied: self.applied.clone(),
            violations,
            deadlock: self.deadlock.clone(),
        }
    }

    /// Whether any injection might still fire at a cycle past `c`: a
    /// scheduled auto-resume, an unfired event whose trigger window has not
    /// opened, or an unfired explicit resume (which could unwedge the run
    /// whenever its condition is met).
    fn injections_pending(&self, c: u64) -> bool {
        !self.auto_resumes.is_empty()
            || self
                .plan
                .events
                .iter()
                .zip(&self.fired)
                .any(|(ev, &fired)| {
                    !fired && (matches!(ev.inject, Inject::Resume { .. }) || ev.trigger.cycle() > c)
                })
    }

    /// Applies auto-resumes and plan events due at polling cycle `c`.
    fn apply_due(&mut self, w: &mut World, c: u64) {
        let _prof = locksim_trace::prof::span("faults/apply_due");
        let due: Vec<_> = self
            .auto_resumes
            .range(..=(c, u64::MAX))
            .map(|(&k, &t)| (k, t))
            .collect();
        for (k, thread) in due {
            self.auto_resumes.remove(&k);
            self.apply(w, c, Inject::Resume { thread });
        }
        for i in 0..self.plan.events.len() {
            if self.fired[i] {
                continue;
            }
            let ev = self.plan.events[i];
            let due = match ev.trigger {
                Trigger::AtCycle(at) => at <= c,
                Trigger::WhenWaiting { thread, after } => {
                    after <= c
                        && (thread as usize) < w.mach().n_threads()
                        && w.mach().waiting_on(ThreadId(thread)).is_some()
                }
                Trigger::WhenHolding { thread, after } => {
                    after <= c
                        && (thread as usize) < w.mach().n_threads()
                        && w.mach().holding_count(ThreadId(thread)) > 0
                }
            };
            if due {
                self.fired[i] = true;
                self.apply(w, c, ev.inject);
            }
        }
    }

    fn apply(&mut self, w: &mut World, c: u64, inject: Inject) {
        let thread_ok = |w: &mut World, t: u32| (t as usize) < w.mach().n_threads();
        let applied = match inject {
            Inject::Suspend { thread, duration } => {
                let ok = thread_ok(w, thread) && w.suspend(ThreadId(thread));
                if ok {
                    if let Some(d) = duration {
                        self.auto_resumes.insert((c + d, self.auto_seq), thread);
                        self.auto_seq += 1;
                    }
                }
                ok
            }
            Inject::Resume { thread } => thread_ok(w, thread) && w.resume_thread(ThreadId(thread)),
            Inject::Migrate { thread, to_core } => {
                thread_ok(w, thread)
                    && (to_core as usize) < w.mach().n_cores()
                    && w.migrate(ThreadId(thread), to_core as usize)
            }
            Inject::FltEvict { core } => {
                (core as usize) < w.mach().n_cores()
                    && w.inject_backend_fault(BackendFault::FltEvict {
                        core: core as usize,
                    })
            }
            Inject::WireDelay { period, extra } => {
                w.mach().set_wire_fault(period, extra);
                true
            }
            Inject::WireClear => {
                w.mach().clear_wire_fault();
                true
            }
        };
        if applied {
            w.mach().metrics_mut().incr("fault_injections");
            // Mark the injection on the time-series so dashboard timelines
            // can correlate tail spikes with the fault that caused them.
            w.mach().series_mark(match inject {
                Inject::Suspend { .. } => "fault/suspend",
                Inject::Resume { .. } => "fault/resume",
                Inject::Migrate { .. } => "fault/migrate",
                Inject::FltEvict { .. } => "fault/flt_evict",
                Inject::WireDelay { .. } => "fault/wire_delay",
                Inject::WireClear => "fault/wire_clear",
            });
            let (thread, arg) = inject_trace_fields(inject);
            let label = inject.label();
            w.mach().trace(|now| TraceEvent {
                t: now,
                ep: TraceEp::Global,
                kind: TraceKind::FaultInject {
                    fault: label,
                    thread,
                    arg,
                },
            });
        }
        self.applied.push(Applied {
            at: c,
            inject,
            applied,
        });
    }
}

/// Flattens an injection into the `(thread, arg)` fields of a
/// [`TraceKind::FaultInject`] record.
fn inject_trace_fields(inject: Inject) -> (u32, u64) {
    match inject {
        Inject::Suspend { thread, duration } => (thread, duration.unwrap_or(0)),
        Inject::Resume { thread } => (thread, 0),
        Inject::Migrate { thread, to_core } => (thread, u64::from(to_core)),
        Inject::FltEvict { core } => (u32::MAX, u64::from(core)),
        Inject::WireDelay { period, extra } => (u32::MAX, period.saturating_mul(1 << 32) | extra),
        Inject::WireClear => (u32::MAX, 0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_fields_pack_by_fault_class() {
        assert_eq!(
            inject_trace_fields(Inject::Suspend {
                thread: 3,
                duration: Some(77),
            }),
            (3, 77)
        );
        assert_eq!(
            inject_trace_fields(Inject::Migrate {
                thread: 2,
                to_core: 5,
            }),
            (2, 5)
        );
        assert_eq!(
            inject_trace_fields(Inject::FltEvict { core: 4 }),
            (u32::MAX, 4)
        );
    }
}
