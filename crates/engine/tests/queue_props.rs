//! Property tests for the deterministic event queue — the contract the
//! timing wheel in `queue.rs` meets, and the safety net any later queue
//! swap must pass.
//!
//! The contract under test: pops are nondecreasing in time, same-cycle
//! events fire in scheduling order (FIFO), every scheduled event is popped
//! exactly once, and `advance_to` moves the clock without disturbing any
//! of that.

use locksim_engine::{RngStream, Simulator, Time};

/// Schedules `delays` up front (payload = scheduling index) and drains.
fn run_schedule(delays: &[u64]) -> Vec<(u64, usize)> {
    let mut sim = Simulator::new();
    for (i, &d) in delays.iter().enumerate() {
        sim.schedule_in(d, i);
    }
    let mut popped = Vec::new();
    while let Some((t, i)) = sim.pop() {
        popped.push((t.cycles(), i));
    }
    popped
}

/// Same-cycle events pop in scheduling order; across cycles, time wins.
/// Equivalently: the pop order is exactly a stable sort of the schedule
/// order by fire time.
#[test]
fn pop_order_is_stable_sort_by_time() {
    for case in 0..64 {
        let mut rng = RngStream::new(case, 6);
        let delays: Vec<u64> = (0..rng.range(1, 64)).map(|_| rng.below(16)).collect();
        let popped = run_schedule(&delays);
        assert_eq!(popped.len(), delays.len(), "case {case}");

        let mut expected: Vec<(u64, usize)> =
            delays.iter().enumerate().map(|(i, &d)| (d, i)).collect();
        expected.sort_by_key(|&(t, _)| t); // sort_by_key is stable
        assert_eq!(popped, expected, "case {case}");
    }
}

/// FIFO stability in the purest form: everything lands on one cycle,
/// so the pop order must be precisely the scheduling order.
#[test]
fn same_cycle_batch_is_fifo() {
    for case in 0..64 {
        let mut rng = RngStream::new(case, 7);
        let n = rng.range(1, 128) as usize;
        let delay = rng.below(1000);
        let popped = run_schedule(&vec![delay; n]);
        let indices: Vec<usize> = popped.iter().map(|&(_, i)| i).collect();
        assert_eq!(indices, (0..n).collect::<Vec<_>>(), "case {case}");
        assert!(popped.iter().all(|&(t, _)| t == delay), "case {case}");
    }
}

/// Interleaving pops with new (future) schedules keeps times
/// nondecreasing, delivers every event exactly once, and the
/// scheduled/processed/pending accounting balances throughout.
#[test]
fn interleaved_pops_preserve_order_and_accounting() {
    for case in 0..64 {
        let mut rng = RngStream::new(case, 8);
        let mut sim = Simulator::new();
        let mut next_id = 0usize;
        for _ in 0..rng.range(1, 16) {
            sim.schedule_in(rng.below(32), next_id);
            next_id += 1;
        }
        let mut respawns = rng.below(64);
        let mut last_t = 0u64;
        let mut seen = Vec::new();
        while let Some((t, id)) = sim.pop() {
            assert!(t.cycles() >= last_t, "case {case}: time went backwards");
            last_t = t.cycles();
            seen.push(id);
            // Consistency between the three counters at every step.
            assert_eq!(
                sim.events_scheduled(),
                sim.events_processed() + sim.pending() as u64,
                "case {case}"
            );
            if respawns > 0 {
                respawns -= 1;
                let d = rng.below(32);
                let copies = 1 + rng.below(2) as usize;
                for _ in 0..copies {
                    sim.schedule_in(d, next_id);
                    next_id += 1;
                }
            }
        }
        // Exactly-once delivery of every id.
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..next_id).collect::<Vec<_>>(), "case {case}");
        assert_eq!(sim.events_processed(), next_id as u64, "case {case}");
        assert!(
            sim.peak_pending() as u64 <= sim.events_scheduled(),
            "case {case}"
        );
    }
}

/// Drain-after-advance: advancing the clock past the drained prefix
/// never reorders or loses the remaining events, and relative
/// scheduling is anchored at the advanced clock.
#[test]
fn drain_then_advance_keeps_invariants() {
    for case in 0..64 {
        let mut rng = RngStream::new(case, 9);
        let early: Vec<u64> = (0..rng.range(1, 16)).map(|_| rng.below(50)).collect();
        let late_gap = rng.range(1, 100);
        let late: Vec<u64> = (0..rng.range(1, 16)).map(|_| rng.below(50)).collect();
        let mut sim = Simulator::new();
        for (i, &d) in early.iter().enumerate() {
            sim.schedule_in(d, i);
        }
        // Drain everything, then advance into the gap beyond the last pop.
        while sim.pop().is_some() {}
        let drained_at = sim.now();
        let target = drained_at + late_gap;
        sim.advance_to(target);
        assert_eq!(sim.now(), target, "case {case}");
        assert_eq!(sim.events_processed(), early.len() as u64, "case {case}");
        assert!(sim.is_empty(), "case {case}");

        // advance_to backwards (or to now) is a no-op.
        sim.advance_to(Time::ZERO);
        sim.advance_to(target);
        assert_eq!(sim.now(), target, "case {case}");

        // New relative schedules are anchored at the advanced clock and
        // drain in stable order.
        for (i, &d) in late.iter().enumerate() {
            sim.schedule_in(d, early.len() + i);
        }
        let mut popped = Vec::new();
        while let Some((t, id)) = sim.pop() {
            assert!(
                t >= target,
                "case {case}: event fired before the advanced clock"
            );
            popped.push((t.cycles() - target.cycles(), id - early.len()));
        }
        let mut expected: Vec<(u64, usize)> =
            late.iter().enumerate().map(|(i, &d)| (d, i)).collect();
        expected.sort_by_key(|&(t, _)| t);
        assert_eq!(popped, expected, "case {case}");
    }
}

/// The peak-pending waterline is exactly the maximum backlog over the
/// run when all events are scheduled up front, and never decreases.
#[test]
fn peak_pending_matches_max_backlog() {
    for case in 0..64 {
        let mut rng = RngStream::new(case, 10);
        let n = rng.range(1, 64) as usize;
        let mut sim = Simulator::new();
        for i in 0..n {
            sim.schedule_in(rng.below(8), i);
            assert_eq!(sim.peak_pending(), i + 1, "case {case}");
        }
        let peak_before = sim.peak_pending();
        while sim.pop().is_some() {}
        assert_eq!(sim.peak_pending(), peak_before, "case {case}");
        assert_eq!(peak_before, n, "case {case}");
    }
}
