//! Delta-debugging plan shrinker.
//!
//! A fuzzed violation usually drags irrelevant events along — the suspend
//! that wedged the queue plus a migration and two wire faults that changed
//! nothing. [`shrink`] reduces a violating [`FaultPlan`] to a **locally
//! minimal** one: no single remaining event can be removed, and no single
//! halving of a numeric parameter (trigger cycle, duration, wire period /
//! extra, deadline) still reproduces the violation. It is plain ddmin —
//! complement removal at geometrically shrinking chunk sizes, then
//! parameter halving toward zero, repeated to a fixpoint.
//!
//! The caller supplies the oracle as a closure that runs the scenario on a
//! candidate plan and reports whether the *original* violation still trips
//! (same oracle kind, typically same lock). The closure must be
//! deterministic — in this codebase every run is — and must return `false`
//! for candidates it cannot run (e.g. a removal that orphaned a `resume`),
//! which the shrinker then simply keeps out of the result. Shrinking is
//! itself deterministic: same plan, same closure, same budget ⇒ same
//! minimal plan.
//!
//! **Adoption contract.** The first call is the input plan. After that,
//! every candidate is one step from the current plan, and the shrinker
//! adopts a candidate as the current plan exactly when the closure returns
//! `true` for it; it never adopts a plan any other way. So the current
//! plan is always the last plan the closure returned `true` for, or the
//! input plan. An incremental closure ([`crate::Resumer`]) relies on this:
//! it adopts the candidate's run as its parent whenever it returns `true`,
//! and resumes the next candidate from that run.

use crate::plan::{FaultPlan, Inject, Trigger};

/// What [`shrink`] produced.
#[derive(Debug, Clone)]
pub struct ShrinkResult {
    /// The locally-minimal plan (equals the input if it never failed).
    pub plan: FaultPlan,
    /// Candidate evaluations spent (each one a closure call).
    pub runs: u64,
}

struct Budget {
    spent: u64,
    max: u64,
}

impl Budget {
    fn run<F: FnMut(&FaultPlan) -> bool>(&mut self, fails: &mut F, cand: &FaultPlan) -> bool {
        if self.spent >= self.max {
            return false;
        }
        self.spent += 1;
        fails(cand)
    }
}

/// Shrinks `plan` against `fails`, spending at most `max_runs` candidate
/// executions. `fails(candidate)` re-runs the scenario and reports whether
/// the original violation still reproduces.
pub fn shrink<F: FnMut(&FaultPlan) -> bool>(
    plan: &FaultPlan,
    mut fails: F,
    max_runs: u64,
) -> ShrinkResult {
    let mut budget = Budget {
        spent: 0,
        max: max_runs,
    };
    let mut best = plan.clone();
    if !budget.run(&mut fails, &best) {
        // The input does not violate (or the budget is 0): nothing to do.
        return ShrinkResult {
            plan: best,
            runs: budget.spent,
        };
    }
    loop {
        let removed = removal_pass(&mut best, &mut fails, &mut budget);
        let halved = param_pass(&mut best, &mut fails, &mut budget);
        if (!removed && !halved) || budget.spent >= budget.max {
            break;
        }
    }
    ShrinkResult {
        plan: best,
        runs: budget.spent,
    }
}

/// Complement-removal ddmin over the event list: try dropping chunks of
/// geometrically shrinking size, keeping any drop that still fails. After
/// the chunk-size-1 sweep no single event is removable.
fn removal_pass<F: FnMut(&FaultPlan) -> bool>(
    plan: &mut FaultPlan,
    fails: &mut F,
    budget: &mut Budget,
) -> bool {
    let mut improved = false;
    let mut chunk = (plan.events.len() / 2).max(1);
    loop {
        let mut i = 0;
        while i < plan.events.len() && budget.spent < budget.max {
            let mut cand = plan.clone();
            let hi = (i + chunk).min(cand.events.len());
            cand.events.drain(i..hi);
            if budget.run(fails, &cand) {
                *plan = cand;
                improved = true;
                // Retry the same index: the next chunk slid into place.
            } else {
                i = hi;
            }
        }
        if chunk == 1 {
            return improved;
        }
        chunk = (chunk / 2).max(1);
    }
}

/// Parameter halving to a fixpoint: while any single halving of a numeric
/// field (or of the plan deadline) still fails, apply it.
fn param_pass<F: FnMut(&FaultPlan) -> bool>(
    plan: &mut FaultPlan,
    fails: &mut F,
    budget: &mut Budget,
) -> bool {
    let mut improved = false;
    loop {
        let mut stepped = false;
        for cand in one_step_candidates(plan) {
            if budget.run(fails, &cand) {
                *plan = cand;
                stepped = true;
                break;
            }
        }
        if !stepped || budget.spent >= budget.max {
            return improved;
        }
        improved = true;
    }
}

/// Every plan one halving-step smaller than `plan`, in deterministic order.
fn one_step_candidates(plan: &FaultPlan) -> Vec<FaultPlan> {
    let mut out = Vec::new();
    if plan.deadline > 1 {
        let mut c = plan.clone();
        c.deadline /= 2;
        out.push(c);
    }
    for i in 0..plan.events.len() {
        let ev = plan.events[i];
        let mut push = |trigger: Trigger, inject: Inject| {
            let mut c = plan.clone();
            c.events[i].trigger = trigger;
            c.events[i].inject = inject;
            if c.events[i] != plan.events[i] {
                out.push(c);
            }
        };
        match ev.trigger {
            Trigger::AtCycle(at) if at > 0 => push(Trigger::AtCycle(at / 2), ev.inject),
            Trigger::WhenWaiting { thread, after } if after > 0 => push(
                Trigger::WhenWaiting {
                    thread,
                    after: after / 2,
                },
                ev.inject,
            ),
            Trigger::WhenHolding { thread, after } if after > 0 => push(
                Trigger::WhenHolding {
                    thread,
                    after: after / 2,
                },
                ev.inject,
            ),
            _ => {}
        }
        match ev.inject {
            Inject::Suspend {
                thread,
                duration: Some(d),
            } if d > 0 => push(
                ev.trigger,
                Inject::Suspend {
                    thread,
                    duration: Some(d / 2),
                },
            ),
            Inject::WireDelay { period, extra } => {
                if period > 1 {
                    push(
                        ev.trigger,
                        Inject::WireDelay {
                            period: period / 2,
                            extra,
                        },
                    );
                }
                if extra > 0 {
                    push(
                        ev.trigger,
                        Inject::WireDelay {
                            period,
                            extra: extra / 2,
                        },
                    );
                }
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic oracle: "fails" iff some event suspends thread 1 with a
    /// duration of at least 1000 cycles.
    fn trips(plan: &FaultPlan) -> bool {
        plan.events.iter().any(|e| {
            matches!(
                e.inject,
                Inject::Suspend {
                    thread: 1,
                    duration: Some(d),
                } if d >= 1_000
            )
        })
    }

    fn noisy_plan() -> FaultPlan {
        FaultPlan::new()
            .deadline(1_000_000)
            .wire_delay_at(0, 3, 400)
            .migrate_at(5_000, 2, 1)
            .suspend_at(20_000, 1, 64_000)
            .flt_evict_at(30_000, 0)
            .suspend_at(40_000, 0, 9_000)
            .migrate_when_waiting(3, 2_000, 0)
    }

    #[test]
    fn shrinks_to_single_relevant_event() {
        let r = shrink(&noisy_plan(), trips, 10_000);
        assert_eq!(r.plan.events.len(), 1, "kept: {:?}", r.plan.events);
        assert!(trips(&r.plan));
        // Parameter halving drove the trigger to 0 and the duration to the
        // smallest power-of-two-halving still >= the threshold.
        assert_eq!(r.plan.events[0].trigger, Trigger::AtCycle(0));
        assert_eq!(
            r.plan.events[0].inject,
            Inject::Suspend {
                thread: 1,
                duration: Some(1_000),
            }
        );
        assert_eq!(r.plan.deadline, 1, "deadline halved to the floor");
    }

    #[test]
    fn shrinking_is_deterministic() {
        let a = shrink(&noisy_plan(), trips, 10_000);
        let b = shrink(&noisy_plan(), trips, 10_000);
        assert_eq!(a.plan, b.plan);
        assert_eq!(a.runs, b.runs);
    }

    #[test]
    fn non_failing_input_is_returned_unchanged() {
        let p = FaultPlan::new().migrate_at(100, 0, 1);
        let r = shrink(&p, trips, 10_000);
        assert_eq!(r.plan, p);
        assert_eq!(r.runs, 1);
    }

    #[test]
    fn budget_bounds_candidate_runs() {
        let r = shrink(&noisy_plan(), trips, 5);
        assert!(r.runs <= 5, "runs = {}", r.runs);
        // Whatever it managed within budget must still trip.
        assert!(trips(&r.plan));
    }

    #[test]
    fn result_is_locally_minimal() {
        let r = shrink(&noisy_plan(), trips, 10_000);
        // No single event can be removed...
        for i in 0..r.plan.events.len() {
            let mut c = r.plan.clone();
            c.events.remove(i);
            assert!(!trips(&c), "event {i} was removable");
        }
        // ...and no single halving still trips.
        for c in one_step_candidates(&r.plan) {
            assert!(!trips(&c), "a halving step still trips: {c:?}");
        }
    }
}
