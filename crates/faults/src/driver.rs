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
#[derive(Debug)]
pub struct FaultDriver {
    plan: FaultPlan,
    fired: Vec<bool>,
    /// Scheduled auto-resumes, keyed by due cycle then arming order.
    auto_resumes: BTreeMap<(u64, u64), u32>,
    auto_seq: u64,
}

impl FaultDriver {
    /// Prepares a driver for `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        let fired = vec![false; plan.events.len()];
        FaultDriver {
            plan,
            fired,
            auto_resumes: BTreeMap::new(),
            auto_seq: 0,
        }
    }

    /// Runs `w` until every thread finishes or the plan deadline passes,
    /// polling every `plan.poll` cycles to apply due injections, and judges
    /// it with the oracles at the plan's `horizon` and `fairness_k`. Each
    /// violation is written back as an `oracle_violations` counter bump, a
    /// per-lock `oracle_violation` lockstat bump and one
    /// [`TraceKind::OracleViolation`] record.
    pub fn run(&mut self, w: &mut World) -> DriveOutcome {
        self.drive(w, 0)
    }

    /// Like [`FaultDriver::run`], but with the quiescence deadlock detector
    /// armed: if lock-protocol progress stalls for `quiesce_cycles` with no
    /// injection still able to unwedge the run, the drive stops early —
    /// with a [`DeadlockReport`] in the outcome when runnable waiters are
    /// blocked, or silently for an injection-induced idle wedge (every
    /// unfinished thread suspended forever; the liveness oracle judges
    /// that). `quiesce_cycles` of 0 disables detection.
    pub fn run_detected(&mut self, w: &mut World, quiesce_cycles: u64) -> DriveOutcome {
        self.drive(w, quiesce_cycles)
    }

    fn drive(&mut self, w: &mut World, quiesce: u64) -> DriveOutcome {
        let _prof = locksim_trace::prof::span("faults/drive");
        let mut out = DriveOutcome {
            exit: RunExit::TimeLimit,
            end_cycle: 0,
            applied: Vec::new(),
            violations: Vec::new(),
            deadlock: None,
        };
        w.mach()
            .tracer_mut()
            .arm_oracles(Oracles::new(self.plan.horizon, self.plan.fairness_k));
        let poll = self.plan.poll.max(1);
        let mut c = 0u64;
        // Apply cycle-0 injections (wire faults, initial pressure) before
        // the first event fires.
        self.apply_due(w, 0, &mut out);
        // Injection activity (the applied-record count) is part of the
        // progress stamp: an auto-resume landing in the same poll as the
        // quiescence check must reset the clock, or the just-resumed thread
        // gets flagged before it has run a single cycle.
        let mut stamp = (detect::progress_stamp(w.mach_ref()), out.applied.len());
        let mut stamp_cycle = 0u64;
        while c < self.plan.deadline {
            c = (c + poll).min(self.plan.deadline);
            out.exit = w.run_until_cycle(c);
            if out.exit == RunExit::AllFinished {
                break;
            }
            self.apply_due(w, c, &mut out);
            if quiesce == 0 {
                continue;
            }
            let now_stamp = (detect::progress_stamp(w.mach_ref()), out.applied.len());
            if now_stamp != stamp {
                stamp = now_stamp;
                stamp_cycle = c;
                continue;
            }
            if c - stamp_cycle < quiesce || self.injections_pending(c) {
                continue;
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
                out.deadlock = Some(report);
                break;
            }
            if detect::all_unfinished_suspended(w.mach_ref()) {
                // Nothing can ever run again; stop burning the deadline.
                break;
            }
        }
        out.end_cycle = w.mach().now().cycles();
        let m = w.mach();
        out.violations = m
            .tracer_mut()
            .take_oracles()
            .expect("the drive armed the oracles")
            .finish(out.end_cycle);
        for &v in &out.violations {
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
        out
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
                    !fired
                        && (matches!(ev.inject, Inject::Resume { .. })
                            || match ev.trigger {
                                Trigger::AtCycle(at) => at > c,
                                Trigger::WhenWaiting { after, .. }
                                | Trigger::WhenHolding { after, .. } => after > c,
                            })
                })
    }

    /// Applies auto-resumes and plan events due at polling cycle `c`.
    fn apply_due(&mut self, w: &mut World, c: u64, out: &mut DriveOutcome) {
        let _prof = locksim_trace::prof::span("faults/apply_due");
        let due: Vec<_> = self
            .auto_resumes
            .range(..=(c, u64::MAX))
            .map(|(&k, &t)| (k, t))
            .collect();
        for (k, thread) in due {
            self.auto_resumes.remove(&k);
            self.apply(w, c, Inject::Resume { thread }, out);
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
                self.apply(w, c, ev.inject, out);
            }
        }
    }

    fn apply(&mut self, w: &mut World, c: u64, inject: Inject, out: &mut DriveOutcome) {
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
        out.applied.push(Applied {
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
