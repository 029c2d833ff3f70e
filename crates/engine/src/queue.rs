//! Deterministic event queue: a bucketed timing wheel with hierarchical
//! overflow.
//!
//! # Geometry
//!
//! Three tiers, promoted lazily as the clock advances:
//!
//! * **Near wheel** — [`SLOTS`] single-cycle buckets covering the aligned
//!   window `[base0, base0 + SLOTS)`. Schedule and pop are O(1); each
//!   bucket holds the events of exactly one cycle in FIFO order.
//! * **Far wheel** — [`SLOTS`] buckets of [`SLOTS`] cycles each covering
//!   `[base1, base1 + SLOTS²)`. When the clock enters a new near window
//!   the one far bucket covering it is cascaded into the near wheel.
//! * **Overflow** — an ordered map keyed by absolute cycle for anything
//!   beyond the far horizon (quantum ticks, watchdogs, chaos deadlines).
//!   When the clock enters a new far window the covered keys are promoted
//!   into the far wheel.
//!
//! # Storage
//!
//! Events live in one slab arena of linked nodes; wheel buckets are just
//! `head`/`tail` node indices. Scheduling writes one node and two indices,
//! popping unlinks the head, and a far→near cascade *relinks* nodes
//! without moving the events. Freed node slots are reused LIFO, so the
//! steady-state working set is `peak_pending` nodes — hot in cache — and
//! the run loop schedules and pops without heap traffic.
//!
//! # Ordering
//!
//! Pops are nondecreasing in time with same-cycle FIFO. The FIFO argument:
//! routing depends only on the event time versus the current windows, and
//! windows only move forward, at which point the covered bucket is drained
//! *stably* before any event in the new window can fire. So for a fixed
//! cycle, earlier-scheduled events always sit earlier in whatever bucket
//! currently holds that cycle. A retired `BinaryHeap` implementation is
//! kept as a `#[cfg(test)]` reference model and the two are driven in
//! lockstep by a differential property test below.

use std::collections::BTreeMap;

use crate::time::{Cycles, Time};

/// Monotonic sequence number used to break ties between events scheduled for
/// the same cycle: events fire in the order they were scheduled.
pub type EventSeq = u64;

/// Buckets per wheel level (must be a power of two).
const SLOTS: usize = 1 << 10;
const SLOT_MASK: u64 = SLOTS as u64 - 1;
/// Cycles covered by the far wheel: `SLOTS` buckets of `SLOTS` cycles.
const FAR_SPAN: u64 = (SLOTS as u64) * (SLOTS as u64);
const WORDS: usize = SLOTS / 64;

#[inline]
fn set_bit(bits: &mut [u64; WORDS], i: usize) {
    bits[i >> 6] |= 1 << (i & 63);
}

#[inline]
fn clear_bit(bits: &mut [u64; WORDS], i: usize) {
    bits[i >> 6] &= !(1 << (i & 63));
}

#[inline]
fn first_bit(bits: &[u64; WORDS]) -> Option<usize> {
    bits.iter()
        .enumerate()
        .find(|(_, &w)| w != 0)
        .map(|(i, &w)| (i << 6) + w.trailing_zeros() as usize)
}

/// First set bit at index `> s`, or `None`. Starts scanning in `s`'s word,
/// so when the next occupied slot is nearby (the common case while the
/// clock walks a window) this reads one or two words, not all of them.
#[inline]
fn first_bit_after(bits: &[u64; WORDS], s: usize) -> Option<usize> {
    let w = s >> 6;
    let masked = bits[w] & !(u64::MAX >> (63 - (s & 63)));
    if masked != 0 {
        return Some((w << 6) + masked.trailing_zeros() as usize);
    }
    bits[w + 1..]
        .iter()
        .enumerate()
        .find(|(_, &word)| word != 0)
        .map(|(i, &word)| ((w + 1 + i) << 6) + word.trailing_zeros() as usize)
}

/// Arena node index sentinel for "no node".
const NIL: u32 = u32::MAX;

/// One arena slot: an event tagged with its absolute cycle, linked into
/// whichever bucket currently holds that cycle. `event` is `None` only
/// while the slot sits on the free list.
#[derive(Debug, Clone)]
struct Node<E> {
    at: u64,
    next: u32,
    event: Option<E>,
}

/// A bucket's intrusive list: head/tail arena indices.
#[derive(Debug, Clone, Copy)]
struct List {
    head: u32,
    tail: u32,
}

impl List {
    const EMPTY: List = List {
        head: NIL,
        tail: NIL,
    };
}

/// A deterministic discrete-event simulator queue.
///
/// Events of type `E` are scheduled at absolute or relative times and popped
/// in nondecreasing time order. Two events scheduled for the same cycle fire
/// in scheduling order, making every run bit-for-bit reproducible.
///
/// The simulator only manages *time and ordering*; the caller interprets the
/// popped events (typically a `World`-style dispatcher owning all model
/// state).
///
/// # Example
///
/// ```
/// use locksim_engine::Simulator;
///
/// let mut sim = Simulator::new();
/// sim.schedule_in(3, 'x');
/// sim.schedule_in(3, 'y'); // same cycle: FIFO order
/// let mut order = Vec::new();
/// while let Some((_, ev)) = sim.pop() {
///     order.push(ev);
/// }
/// assert_eq!(order, ['x', 'y']);
/// ```
#[derive(Debug, Clone)]
pub struct Simulator<E> {
    now: Time,
    seq: EventSeq,
    popped: u64,
    pending: usize,
    peak_pending: usize,
    /// Cycle of the earliest pending event — kept exact by every mutation
    /// so `peek_time` (called once per run-loop iteration) is a load.
    next_at: Option<u64>,
    /// Start of the near window (aligned down to `SLOTS`).
    base0: u64,
    /// Start of the far window (aligned down to `FAR_SPAN`).
    base1: u64,
    /// Slab of linked event nodes; freed slots chain off `free` and are
    /// reused LIFO, so the hot working set is `peak_pending` nodes.
    arena: Vec<Node<E>>,
    free: u32,
    near: Box<[List; SLOTS]>,
    near_bits: [u64; WORDS],
    far: Box<[List; SLOTS]>,
    far_bits: [u64; WORDS],
    overflow: BTreeMap<u64, List>,
}

impl<E> Default for Simulator<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Simulator<E> {
    /// Creates an empty simulator at time zero.
    pub fn new() -> Self {
        Simulator {
            now: Time::ZERO,
            seq: 0,
            popped: 0,
            pending: 0,
            peak_pending: 0,
            next_at: None,
            base0: 0,
            base1: 0,
            arena: Vec::new(),
            free: NIL,
            near: Box::new([List::EMPTY; SLOTS]),
            near_bits: [0; WORDS],
            far: Box::new([List::EMPTY; SLOTS]),
            far_bits: [0; WORDS],
            overflow: BTreeMap::new(),
        }
    }

    /// Takes a node off the free list (or grows the slab) and fills it.
    #[inline]
    fn alloc_node(&mut self, at: u64, event: E) -> u32 {
        if self.free != NIL {
            let idx = self.free;
            let n = &mut self.arena[idx as usize];
            self.free = n.next;
            n.at = at;
            n.next = NIL;
            n.event = Some(event);
            idx
        } else {
            let idx = u32::try_from(self.arena.len()).expect("event arena overflow");
            assert_ne!(idx, NIL, "event arena overflow");
            self.arena.push(Node {
                at,
                next: NIL,
                event: Some(event),
            });
            idx
        }
    }

    /// The current simulated time: the timestamp of the most recently popped
    /// event (zero before the first pop).
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of events popped so far.
    #[inline]
    pub fn events_processed(&self) -> u64 {
        self.popped
    }

    /// Number of events still pending.
    #[inline]
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Highest number of simultaneously pending events seen so far — the
    /// queue-occupancy waterline reported as `evq_peak_pending`.
    #[inline]
    pub fn peak_pending(&self) -> usize {
        self.peak_pending
    }

    /// Total events ever scheduled (the next sequence number).
    #[inline]
    pub fn events_scheduled(&self) -> u64 {
        self.seq
    }

    /// Returns `true` if no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Schedules `event` to fire `delay` cycles from now.
    pub fn schedule_in(&mut self, delay: Cycles, event: E) -> EventSeq {
        self.schedule_at(self.now + delay, event)
    }

    /// Schedules `event` to fire at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `at` is in the past.
    pub fn schedule_at(&mut self, at: Time, event: E) -> EventSeq {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at:?} < {:?}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        let t = at.max(self.now).cycles();
        let idx = self.alloc_node(t, event);
        if t < self.base0 + SLOTS as u64 {
            // The near window starts at or below `now`, so `t` maps to the
            // unique in-window cycle for its slot.
            let s = (t & SLOT_MASK) as usize;
            let tail = self.near[s].tail;
            if tail == NIL {
                self.near[s].head = idx;
                set_bit(&mut self.near_bits, s);
            } else {
                self.arena[tail as usize].next = idx;
            }
            self.near[s].tail = idx;
        } else if t < self.base1 + FAR_SPAN {
            let b = ((t >> 10) & SLOT_MASK) as usize;
            let tail = self.far[b].tail;
            if tail == NIL {
                self.far[b].head = idx;
                set_bit(&mut self.far_bits, b);
            } else {
                self.arena[tail as usize].next = idx;
            }
            self.far[b].tail = idx;
        } else {
            let list = self.overflow.entry(t).or_insert(List::EMPTY);
            let tail = list.tail;
            list.tail = idx;
            if tail == NIL {
                list.head = idx;
            } else {
                self.arena[tail as usize].next = idx;
            }
        }
        self.pending += 1;
        self.peak_pending = self.peak_pending.max(self.pending);
        self.next_at = Some(self.next_at.map_or(t, |n| n.min(t)));
        seq
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let t = self.next_at?;
        if t >= self.base0 + SLOTS as u64 {
            self.roll_to(t);
        }
        let s = (t & SLOT_MASK) as usize;
        let idx = self.near[s].head;
        debug_assert_ne!(idx, NIL, "next_at desynced");
        let node = &mut self.arena[idx as usize];
        let event = node.event.take().expect("free node linked in a bucket");
        let next = node.next;
        node.next = self.free;
        self.free = idx;
        self.near[s].head = next;
        self.pending -= 1;
        self.popped += 1;
        let at = Time::from_cycles(t);
        debug_assert!(at >= self.now);
        self.now = at;
        if next == NIL {
            self.near[s].tail = NIL;
            clear_bit(&mut self.near_bits, s);
            self.recompute_next(s);
        }
        Some((at, event))
    }

    /// Timestamp of the next pending event, if any.
    #[inline]
    pub fn peek_time(&self) -> Option<Time> {
        self.next_at.map(Time::from_cycles)
    }

    /// Advances the clock to `at` without popping an event, so work injected
    /// from outside the queue (fault injection, external stimuli) lands at an
    /// exact cycle. A target at or before `now` is a no-op.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if an event earlier than `at` is still pending —
    /// the caller must drain those first or determinism is lost.
    pub fn advance_to(&mut self, at: Time) {
        if at <= self.now {
            return;
        }
        debug_assert!(
            self.peek_time().is_none_or(|t| t >= at),
            "advance_to({at:?}) would skip a pending event at {:?}",
            self.peek_time()
        );
        self.now = at;
    }

    /// Rolls the windows forward so cycle `t` lies in the near wheel,
    /// cascading the covering far bucket (and, on a far-window crossing,
    /// promoting the covered overflow keys first). Only called when the
    /// near wheel is empty: every earlier event has already popped.
    #[cold]
    fn roll_to(&mut self, t: u64) {
        debug_assert!(
            self.near_bits.iter().all(|&w| w == 0),
            "window roll with events still in the near wheel"
        );
        if t >= self.base1 + FAR_SPAN {
            debug_assert!(
                self.far_bits.iter().all(|&w| w == 0),
                "far-window roll with events still in the far wheel"
            );
            self.base1 = t & !(FAR_SPAN - 1);
            let horizon = self.base1 + FAR_SPAN;
            while let Some(entry) = self.overflow.first_entry() {
                let k = *entry.key();
                if k >= horizon {
                    break;
                }
                // Splice the whole per-key list onto the far bucket: keys
                // promote in ascending order and each key's list is already
                // FIFO, so bucket order stays (cycle, then scheduling order).
                let list = entry.remove();
                let b = ((k >> 10) & SLOT_MASK) as usize;
                let tail = self.far[b].tail;
                if tail == NIL {
                    self.far[b].head = list.head;
                    set_bit(&mut self.far_bits, b);
                } else {
                    self.arena[tail as usize].next = list.head;
                }
                self.far[b].tail = list.tail;
            }
        }
        self.base0 = t & !SLOT_MASK;
        let b = ((t >> 10) & SLOT_MASK) as usize;
        if self.far_bits[b >> 6] & (1 << (b & 63)) != 0 {
            clear_bit(&mut self.far_bits, b);
            // Stable cascade: relink each node into its near slot in list
            // order. The events themselves never move.
            let mut idx = std::mem::replace(&mut self.far[b], List::EMPTY).head;
            while idx != NIL {
                let node = &mut self.arena[idx as usize];
                let (time, next) = (node.at, node.next);
                node.next = NIL;
                debug_assert_eq!(time & !SLOT_MASK, self.base0);
                let s = (time & SLOT_MASK) as usize;
                let tail = self.near[s].tail;
                if tail == NIL {
                    self.near[s].head = idx;
                    set_bit(&mut self.near_bits, s);
                } else {
                    self.arena[tail as usize].next = idx;
                }
                self.near[s].tail = idx;
                idx = next;
            }
        }
    }

    /// Rebuilds `next_at` after the slot `drained` (the cached minimum's
    /// slot) emptied. Every pending near event is strictly after the drained
    /// cycle, so the scan starts at its slot rather than slot 0; far buckets
    /// cover disjoint increasing ranges within their window, so the first
    /// occupied bucket holds the minimum otherwise (found by walking its
    /// list); overflow keys all lie beyond the far horizon.
    fn recompute_next(&mut self, drained: usize) {
        self.next_at = if let Some(s) = first_bit_after(&self.near_bits, drained) {
            Some(self.base0 + s as u64)
        } else if let Some(b) = first_bit(&self.far_bits) {
            let mut idx = self.far[b].head;
            let mut min = u64::MAX;
            while idx != NIL {
                let node = &self.arena[idx as usize];
                min = min.min(node.at);
                idx = node.next;
            }
            Some(min)
        } else {
            self.overflow.first_key_value().map(|(&k, _)| k)
        };
    }
}

/// The retired `BinaryHeap` event queue, kept as the reference model for the
/// differential property test: same API subset, obviously correct ordering
/// by `(time, seq)`.
#[cfg(test)]
mod model {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    use super::EventSeq;
    use crate::time::{Cycles, Time};

    #[derive(Debug)]
    struct Entry<E> {
        time: Time,
        seq: EventSeq,
        event: E,
    }

    impl<E> PartialEq for Entry<E> {
        fn eq(&self, other: &Self) -> bool {
            self.time == other.time && self.seq == other.seq
        }
    }
    impl<E> Eq for Entry<E> {}
    impl<E> PartialOrd for Entry<E> {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<E> Ord for Entry<E> {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            (self.time, self.seq).cmp(&(other.time, other.seq))
        }
    }

    #[derive(Debug, Default)]
    pub struct HeapSimulator<E> {
        now: Time,
        seq: EventSeq,
        heap: BinaryHeap<Reverse<Entry<E>>>,
        popped: u64,
        peak_pending: usize,
    }

    impl<E> HeapSimulator<E> {
        pub fn new() -> Self {
            HeapSimulator {
                now: Time::ZERO,
                seq: 0,
                heap: BinaryHeap::new(),
                popped: 0,
                peak_pending: 0,
            }
        }

        pub fn now(&self) -> Time {
            self.now
        }

        pub fn events_processed(&self) -> u64 {
            self.popped
        }

        pub fn pending(&self) -> usize {
            self.heap.len()
        }

        pub fn peak_pending(&self) -> usize {
            self.peak_pending
        }

        pub fn events_scheduled(&self) -> u64 {
            self.seq
        }

        pub fn schedule_in(&mut self, delay: Cycles, event: E) -> EventSeq {
            self.schedule_at(self.now + delay, event)
        }

        pub fn schedule_at(&mut self, at: Time, event: E) -> EventSeq {
            debug_assert!(at >= self.now);
            let seq = self.seq;
            self.seq += 1;
            self.heap.push(Reverse(Entry {
                time: at.max(self.now),
                seq,
                event,
            }));
            self.peak_pending = self.peak_pending.max(self.heap.len());
            seq
        }

        pub fn pop(&mut self) -> Option<(Time, E)> {
            let Reverse(entry) = self.heap.pop()?;
            self.now = entry.time;
            self.popped += 1;
            Some((entry.time, entry.event))
        }

        pub fn peek_time(&self) -> Option<Time> {
            self.heap.peek().map(|Reverse(e)| e.time)
        }

        pub fn advance_to(&mut self, at: Time) {
            if at <= self.now {
                return;
            }
            debug_assert!(self.peek_time().is_none_or(|t| t >= at));
            self.now = at;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut sim = Simulator::new();
        sim.schedule_in(30, 3);
        sim.schedule_in(10, 1);
        sim.schedule_in(20, 2);
        let order: Vec<i32> = std::iter::from_fn(|| sim.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, [1, 2, 3]);
    }

    #[test]
    fn same_cycle_is_fifo() {
        let mut sim = Simulator::new();
        for i in 0..100 {
            sim.schedule_in(5, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| sim.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_to_popped_event() {
        let mut sim = Simulator::new();
        sim.schedule_in(42, ());
        assert_eq!(sim.now(), Time::ZERO);
        sim.pop();
        assert_eq!(sim.now(), Time::from_cycles(42));
    }

    #[test]
    fn schedule_relative_to_current_time() {
        let mut sim = Simulator::new();
        sim.schedule_in(10, 'a');
        sim.pop();
        sim.schedule_in(5, 'b');
        let (t, _) = sim.pop().unwrap();
        assert_eq!(t, Time::from_cycles(15));
    }

    #[test]
    fn peek_does_not_advance() {
        let mut sim = Simulator::new();
        sim.schedule_in(7, ());
        assert_eq!(sim.peek_time(), Some(Time::from_cycles(7)));
        assert_eq!(sim.now(), Time::ZERO);
    }

    #[test]
    fn counters_track_activity() {
        let mut sim = Simulator::new();
        assert!(sim.is_empty());
        sim.schedule_in(1, ());
        sim.schedule_in(2, ());
        assert_eq!(sim.pending(), 2);
        sim.pop();
        assert_eq!(sim.events_processed(), 1);
        assert_eq!(sim.pending(), 1);
        assert_eq!(sim.events_scheduled(), 2);
    }

    #[test]
    fn peak_pending_is_a_high_water_mark() {
        let mut sim = Simulator::new();
        assert_eq!(sim.peak_pending(), 0);
        sim.schedule_in(1, ());
        sim.schedule_in(2, ());
        sim.schedule_in(3, ());
        assert_eq!(sim.peak_pending(), 3);
        sim.pop();
        sim.pop();
        // Draining never lowers the waterline.
        assert_eq!(sim.peak_pending(), 3);
        sim.schedule_in(4, ());
        assert_eq!(sim.pending(), 2);
        assert_eq!(sim.peak_pending(), 3);
    }

    #[test]
    fn advance_to_moves_clock_without_popping() {
        let mut sim: Simulator<()> = Simulator::new();
        sim.advance_to(Time::from_cycles(50));
        assert_eq!(sim.now(), Time::from_cycles(50));
        assert_eq!(sim.events_processed(), 0);
        // Backwards / same-cycle targets are no-ops.
        sim.advance_to(Time::from_cycles(10));
        assert_eq!(sim.now(), Time::from_cycles(50));
        // Scheduling after an advance is relative to the new clock.
        sim.schedule_in(5, ());
        let (t, _) = sim.pop().unwrap();
        assert_eq!(t, Time::from_cycles(55));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "would skip a pending event")]
    fn advance_past_pending_event_panics() {
        let mut sim = Simulator::new();
        sim.schedule_in(3, ());
        sim.advance_to(Time::from_cycles(10));
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_deterministic() {
        // Two identical runs produce identical traces.
        let run = || {
            let mut sim = Simulator::new();
            let mut trace = Vec::new();
            sim.schedule_in(0, 0u32);
            while let Some((t, e)) = sim.pop() {
                trace.push((t, e));
                if e < 20 {
                    sim.schedule_in((e as u64 * 7) % 5, e + 2);
                    sim.schedule_in((e as u64 * 3) % 5, e + 1);
                }
            }
            trace
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn far_future_events_cross_every_tier() {
        let mut sim = Simulator::new();
        // Overflow (beyond the far horizon), far wheel, near wheel — all at
        // once, with same-cycle pairs on each tier.
        let far = FAR_SPAN + 7;
        sim.schedule_in(far, 100);
        sim.schedule_in(far, 101);
        sim.schedule_in(SLOTS as u64 + 3, 10);
        sim.schedule_in(SLOTS as u64 + 3, 11);
        sim.schedule_in(2, 0);
        sim.schedule_in(2, 1);
        let order: Vec<i32> = std::iter::from_fn(|| sim.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, [0, 1, 10, 11, 100, 101]);
        assert_eq!(sim.now(), Time::from_cycles(far));
    }

    #[test]
    fn same_cycle_fifo_survives_tier_promotion() {
        // Schedule at a cycle while it is far-future, then again at the same
        // cycle once it is near: the early (overflow) event must still pop
        // first.
        let mut sim = Simulator::new();
        let target = FAR_SPAN + 500;
        sim.schedule_at(Time::from_cycles(target), 'a'); // overflow tier
        sim.schedule_in(1, 'x');
        sim.pop(); // now = 1
        sim.schedule_at(Time::from_cycles(target), 'b'); // still far
        let (_, e1) = sim.pop().unwrap();
        // 'b' was scheduled after 'a'; both promoted stably.
        assert_eq!(e1, 'a');
        assert_eq!(sim.pop().unwrap().1, 'b');
    }

    mod differential {
        //! The wheel and the retired heap queue are driven with identical
        //! random schedule/pop/advance sequences — including same-cycle
        //! bursts, far-future overflow, and drain-then-advance — and must
        //! agree on pop order, clock, and the
        //! `scheduled = processed + pending` accounting at every step.

        use super::super::model::HeapSimulator;
        use super::*;
        use crate::RngStream;

        #[derive(Debug, Clone)]
        enum Op {
            /// Schedule `1 + burst` events `delay` cycles out (a burst lands
            /// them all on the same cycle, exercising FIFO).
            Schedule {
                delay: u64,
                burst: u8,
            },
            Pop,
            /// Drain everything, then advance the clock into the gap.
            DrainThenAdvance {
                gap: u64,
            },
        }

        /// One random op, biased toward schedules, with delays mixing
        /// near-window, far-wheel, and overflow targets.
        fn random_op(rng: &mut RngStream) -> Op {
            let delay = rng.below(600);
            match rng.below(8) {
                0..=3 => Op::Schedule {
                    delay: match delay % 3 {
                        0 => delay,
                        1 => delay * 97,
                        _ => FAR_SPAN + delay * 13,
                    },
                    burst: rng.below(4) as u8,
                },
                4..=6 => Op::Pop,
                _ => Op::DrainThenAdvance {
                    gap: 1 + rng.below(2000),
                },
            }
        }

        fn check_agree(case: u64, ops: Vec<Op>) {
            let mut wheel = Simulator::new();
            let mut heap = HeapSimulator::new();
            let mut id = 0u64;
            for op in ops {
                match op {
                    Op::Schedule { delay, burst } => {
                        for _ in 0..=burst {
                            let a = wheel.schedule_in(delay, id);
                            let b = heap.schedule_in(delay, id);
                            assert_eq!(a, b, "case {case}: sequence numbers diverged");
                            id += 1;
                        }
                    }
                    Op::Pop => {
                        assert_eq!(wheel.pop(), heap.pop(), "case {case}");
                    }
                    Op::DrainThenAdvance { gap } => {
                        loop {
                            let (a, b) = (wheel.pop(), heap.pop());
                            assert_eq!(a, b, "case {case}");
                            if a.is_none() {
                                break;
                            }
                        }
                        let target = wheel.now() + gap;
                        wheel.advance_to(target);
                        heap.advance_to(target);
                    }
                }
                assert_eq!(wheel.now(), heap.now(), "case {case}");
                assert_eq!(wheel.peek_time(), heap.peek_time(), "case {case}");
                assert_eq!(wheel.pending(), heap.pending(), "case {case}");
                assert_eq!(wheel.peak_pending(), heap.peak_pending(), "case {case}");
                assert_eq!(
                    wheel.events_scheduled(),
                    wheel.events_processed() + wheel.pending() as u64,
                    "case {case}"
                );
                assert_eq!(
                    heap.events_scheduled(),
                    heap.events_processed() + heap.pending() as u64,
                    "case {case}"
                );
            }
            // Final drain: both queues must agree to exhaustion.
            loop {
                let (a, b) = (wheel.pop(), heap.pop());
                assert_eq!(a, b, "case {case}");
                if a.is_none() {
                    break;
                }
            }
            assert_eq!(
                wheel.events_processed(),
                heap.events_processed(),
                "case {case}"
            );
        }

        #[test]
        fn wheel_matches_heap_model() {
            for case in 0..128 {
                let mut rng = RngStream::new(case, 5);
                let ops = (0..rng.range(1, 200))
                    .map(|_| random_op(&mut rng))
                    .collect();
                check_agree(case, ops);
            }
        }
    }
}
