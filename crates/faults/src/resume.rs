//! Incremental plan evaluation: run a candidate plan from a checkpoint of
//! a parent plan's run instead of from cycle 0.
//!
//! The shrinker's candidates differ from the plan it last adopted by one
//! removed chunk or one halved parameter, and two driven runs do the same
//! computation until the first poll at which their drivers can act
//! differently. The **divergence rule** computes that poll from the two
//! plans and one poll the parent's run recorded. It is the minimum of:
//!
//! * 0, if `poll`, `horizon` or `fairness_k` differ;
//! * if the deadlines differ, the last multiple of `poll` at or below the
//!   smaller one;
//! * for each unpaired event on either side, the first poll at or after
//!   its trigger cycle. Events pair by index when the counts are equal and
//!   in order by equality otherwise; an index pair of unequal events is
//!   unpaired on both sides;
//! * when the counts differ, the first poll at which the parent's
//!   deadlock detector asked whether injections were pending (no bound if
//!   it never asked): a removed event still waiting for its trigger kept
//!   that answer "yes" in the parent's run only.
//!
//! Before that poll the two drivers attempt the same events at the same
//! polls and their detectors read the same state, so the two runs agree.
//! [`Resumer`] keeps checkpoints (a [`World::fork`] plus a copy of the
//! [`FaultDriver`]) along the parent's run and resumes each candidate from
//! the latest one at or before its divergence poll. A resumed run passes
//! through a state the from-scratch run also passes through, so its
//! outcome and its end world (metrics, series, lockstat, trace ring) are
//! the from-scratch run's, byte for byte.

use locksim_machine::{RunExit, World};

use crate::driver::{DriveOutcome, FaultDriver};
#[cfg(test)]
use crate::plan::Trigger;
use crate::plan::{FaultEvent, FaultPlan};

/// Checkpoints a [`Resumer`] keeps along its parent's run, besides the
/// freshly built world at poll 0.
const MAX_CHECKPOINTS: usize = 4;

/// Where a candidate plan's run can first part from its parent's.
#[derive(Debug)]
struct Divergence {
    /// The first poll at which the candidate's driver could act differently
    /// from the parent's; `u64::MAX` when it never can.
    poll: u64,
    /// For each candidate event, the index of the parent event it pairs
    /// with (an equal event), or `None` for an unpaired one.
    pairs: Vec<Option<usize>>,
}

/// The divergence rule of the module docs: where the run of `cand` can
/// first part from the run of `parent`, whose detector first asked whether
/// injections were pending at `first_pending_check`.
fn divergence(
    parent: &FaultPlan,
    first_pending_check: Option<u64>,
    cand: &FaultPlan,
) -> Divergence {
    let pairs = pair_events(&parent.events, &cand.events);
    if parent.poll != cand.poll
        || parent.horizon != cand.horizon
        || parent.fairness_k != cand.fairness_k
    {
        return Divergence { poll: 0, pairs };
    }
    let step = parent.poll.max(1);
    let mut poll = u64::MAX;
    if parent.deadline != cand.deadline {
        let d = parent.deadline.min(cand.deadline);
        poll = d - d % step;
    }
    let mut paired = vec![false; parent.events.len()];
    for (j, p) in pairs.iter().enumerate() {
        match *p {
            Some(i) => paired[i] = true,
            None => poll = poll.min(first_poll_at_or_after(cand, cand.events[j].trigger.cycle())),
        }
    }
    for (i, ev) in parent.events.iter().enumerate() {
        if !paired[i] {
            poll = poll.min(first_poll_at_or_after(parent, ev.trigger.cycle()));
        }
    }
    if parent.events.len() != cand.events.len() {
        if let Some(check) = first_pending_check {
            poll = poll.min(check);
        }
    }
    Divergence { poll, pairs }
}

/// Pairs `cand`'s events with `parent`'s: by index when the counts are
/// equal (an unequal pair is left unpaired), otherwise greedily in order by
/// equality.
fn pair_events(parent: &[FaultEvent], cand: &[FaultEvent]) -> Vec<Option<usize>> {
    if parent.len() == cand.len() {
        return parent
            .iter()
            .zip(cand)
            .enumerate()
            .map(|(i, (p, c))| (p == c).then_some(i))
            .collect();
    }
    let mut next = 0;
    cand.iter()
        .map(|c| {
            let i = next + parent[next..].iter().position(|p| p == c)?;
            next = i + 1;
            Some(i)
        })
        .collect()
}

/// The first poll of `plan`'s run at or after `cycle`, or `u64::MAX` when
/// the run has no such poll. Polls fall on multiples of `plan.poll` and on
/// the deadline.
fn first_poll_at_or_after(plan: &FaultPlan, cycle: u64) -> u64 {
    if cycle > plan.deadline {
        return u64::MAX;
    }
    cycle
        .div_ceil(plan.poll.max(1))
        .saturating_mul(plan.poll.max(1))
        .min(plan.deadline)
}

/// The last poll of `plan`'s run at or before `cycle`.
fn last_poll_at_or_before(plan: &FaultPlan, cycle: u64) -> u64 {
    if cycle >= plan.deadline {
        plan.deadline
    } else {
        cycle - cycle % plan.poll.max(1)
    }
}

/// A world and its driver standing at a poll, before that poll's
/// injections. The driver is in terms of the parent's plan.
struct Checkpoint {
    world: World,
    driver: FaultDriver,
}

/// A finished run: the driver's end state, the outcome and the end world.
struct Finished {
    driver: FaultDriver,
    out: DriveOutcome,
    world: World,
}

/// The last evaluated candidate: its plan, its divergence from the parent
/// and, when it was simulated, its run.
struct Last {
    plan: FaultPlan,
    div: Divergence,
    run: Option<Finished>,
}

/// One shrinking seed's incremental evaluator.
///
/// It keeps the adopted plan's run (its driver's end state, outcome and end
/// world) and at most four checkpoints along it. Each [`Resumer::eval`]
/// runs a candidate from the latest checkpoint at or before its divergence
/// poll (see the module docs), or from a freshly built world when there
/// is none, and stores a checkpoint at the last poll at or before that poll
/// as the run passes it. A candidate whose divergence poll lies past the
/// parent's end shares the parent's outcome and end world, and nothing is
/// simulated. [`Resumer::adopt`] makes the last candidate the parent.
pub struct Resumer<B: Fn() -> World> {
    /// Builds the world a run starts from at poll 0.
    build: B,
    parent: Finished,
    /// Checkpoints along the parent's run, by poll.
    checkpoints: Vec<Checkpoint>,
    last: Option<Last>,
}

impl<B: Fn() -> World> Resumer<B> {
    /// An evaluator whose parent is the finished run `driver` made of
    /// `world`, with outcome `out`. `build` builds the same world as it
    /// stood before that run.
    pub fn new(build: B, driver: FaultDriver, out: DriveOutcome, world: World) -> Self {
        Resumer {
            build,
            parent: Finished { driver, out, world },
            checkpoints: Vec::new(),
            last: None,
        }
    }

    /// Runs `cand` and returns its outcome; [`Resumer::last_world`] is then
    /// its end world. Equal, byte for byte, to building a world and driving
    /// `cand` from cycle 0 with the parent's detector setting.
    pub fn eval(&mut self, cand: &FaultPlan) -> &DriveOutcome {
        let parent = &self.parent.driver;
        let div = divergence(parent.plan(), parent.first_pending_check(), cand);
        let ended = parent.at() < div.poll
            || (parent.at() == div.poll && parent.exit() == RunExit::AllFinished);
        if ended {
            self.last = Some(Last {
                plan: cand.clone(),
                div,
                run: None,
            });
            return &self.parent.out;
        }
        let (mut world, mut driver) =
            match self.checkpoints.iter().rfind(|c| c.driver.at() <= div.poll) {
                Some(c) => (
                    c.world.fork().expect("a checkpoint's world forks"),
                    c.driver.rebase(cand, &div.pairs),
                ),
                None => ((self.build)(), parent.restart(cand)),
            };
        // The store keeps its earliest checkpoints, so a full one has no
        // room for a later one.
        let save_at = last_poll_at_or_before(cand, div.poll);
        let save = save_at > driver.at()
            && (self.checkpoints.len() < MAX_CHECKPOINTS
                || self
                    .checkpoints
                    .last()
                    .is_some_and(|c| c.driver.at() > save_at));
        let unpair = inverse(&div.pairs, parent.plan().events.len());
        let mut saved = None;
        let out = driver.drive(&mut world, |d, w| {
            if save && d.at() == save_at {
                saved = w.fork().map(|world| Checkpoint {
                    world,
                    driver: d.rebase(self.parent.driver.plan(), &unpair),
                });
            }
        });
        if let Some(c) = saved {
            self.store(c);
        }
        let last = self.last.insert(Last {
            plan: cand.clone(),
            div,
            run: Some(Finished { driver, out, world }),
        });
        &last.run.as_ref().expect("just stored").out
    }

    /// The end world of the last [`Resumer::eval`]ed candidate (the
    /// parent's before any).
    pub fn last_world(&self) -> &World {
        match &self.last {
            Some(Last { run: Some(run), .. }) => &run.world,
            _ => &self.parent.world,
        }
    }

    /// Makes the last evaluated candidate the parent. Checkpoints past its
    /// divergence poll belong to the old parent's run only and are dropped.
    ///
    /// # Panics
    ///
    /// Panics if nothing was evaluated since the last adoption.
    pub fn adopt(&mut self) {
        let Last { plan, div, run } = self.last.take().expect("adopt follows an eval");
        self.checkpoints.retain(|c| c.driver.at() <= div.poll);
        for c in &mut self.checkpoints {
            c.driver = c.driver.rebase(&plan, &div.pairs);
        }
        match run {
            Some(run) => self.parent = run,
            // The candidate's run is the parent's.
            None => self.parent.driver = self.parent.driver.rebase(&plan, &div.pairs),
        }
    }

    /// Adds a checkpoint along the parent's run, keeping the earliest
    /// `MAX_CHECKPOINTS`: an earlier checkpoint serves every candidate that
    /// diverges after it.
    fn store(&mut self, c: Checkpoint) {
        let at = c.driver.at();
        let i = self.checkpoints.partition_point(|k| k.driver.at() < at);
        self.checkpoints.insert(i, c);
        self.checkpoints.truncate(MAX_CHECKPOINTS);
    }
}

/// The inverse of a pairing: for each of the `n` parent events, the
/// candidate event paired with it.
fn inverse(pairs: &[Option<usize>], n: usize) -> Vec<Option<usize>> {
    let mut inv = vec![None; n];
    for (j, p) in pairs.iter().enumerate() {
        if let Some(i) = *p {
            inv[i] = Some(j);
        }
    }
    inv
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Polls every 1 000 cycles to 100 000, with three events.
    fn parent() -> FaultPlan {
        FaultPlan::new()
            .poll(1_000)
            .deadline(100_000)
            .migrate_at(2_500, 0, 1)
            .suspend_at(40_000, 1, 5_000)
            .wire_delay_at(70_200, 3, 400)
    }

    #[test]
    fn identical_plans_never_diverge() {
        let d = divergence(&parent(), Some(3_000), &parent());
        assert_eq!(d.poll, u64::MAX);
        assert_eq!(d.pairs, [Some(0), Some(1), Some(2)]);
    }

    #[test]
    fn other_poll_horizon_or_fairness_k_diverge_at_poll_0() {
        for cand in [
            parent().poll(500),
            parent().horizon(1),
            parent().fairness_k(1),
        ] {
            assert_eq!(divergence(&parent(), None, &cand).poll, 0, "{cand:?}");
        }
    }

    #[test]
    fn a_smaller_deadline_diverges_at_its_last_poll_multiple() {
        let cand = FaultPlan {
            deadline: 50_700,
            ..parent()
        };
        assert_eq!(divergence(&parent(), None, &cand).poll, 50_000);
        // Either side may hold the smaller deadline.
        assert_eq!(divergence(&cand, None, &parent()).poll, 50_000);
    }

    #[test]
    fn an_unpaired_event_diverges_at_its_first_poll() {
        // Same count: event 1 halved pairs with nothing, on either side.
        let mut cand = parent();
        cand.events[1].trigger = Trigger::AtCycle(20_000);
        let d = divergence(&parent(), None, &cand);
        assert_eq!(d.pairs, [Some(0), None, Some(2)]);
        assert_eq!(d.poll, 20_000);
        cand.events[1].trigger = Trigger::AtCycle(80_000);
        assert_eq!(divergence(&parent(), None, &cand).poll, 40_000);
        // Fewer: the removed wire delay at 70 200 first acts at poll 71 000.
        let mut cand = parent();
        cand.events.remove(2);
        let d = divergence(&parent(), None, &cand);
        assert_eq!(d.pairs, [Some(0), Some(1)]);
        assert_eq!(d.poll, 71_000);
    }

    #[test]
    fn a_removal_diverges_at_the_first_pending_check() {
        let mut cand = parent();
        cand.events.remove(1);
        let d = divergence(&parent(), Some(12_000), &cand);
        assert_eq!(d.pairs, [Some(0), Some(2)]);
        assert_eq!(d.poll, 12_000);
        // A detector that never checked bounds nothing.
        assert_eq!(divergence(&parent(), None, &cand).poll, 40_000);
        // A change that keeps the count leaves the check alone.
        let mut cand = parent();
        cand.events[2].trigger = Trigger::AtCycle(60_000);
        assert_eq!(divergence(&parent(), Some(12_000), &cand).poll, 60_000);
    }

    #[test]
    fn polls_fall_on_multiples_and_the_deadline() {
        let p = FaultPlan::new().poll(300).deadline(1_000);
        assert_eq!(first_poll_at_or_after(&p, 0), 0);
        assert_eq!(first_poll_at_or_after(&p, 301), 600);
        assert_eq!(first_poll_at_or_after(&p, 950), 1_000);
        assert_eq!(first_poll_at_or_after(&p, 1_001), u64::MAX);
        assert_eq!(last_poll_at_or_before(&p, 599), 300);
        assert_eq!(last_poll_at_or_before(&p, 5_000), 1_000);
    }
}
