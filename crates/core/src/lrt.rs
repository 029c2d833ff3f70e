//! The Lock Reservation Table: per-memory-controller lock queue management.

use locksim_engine::{FxHashMap, Time};
use locksim_machine::{Addr, ThreadId};

use crate::msg::Node;

/// One LRT line (paper Figure 3): queue head/tail pointers, the overflow
/// reader count, and the reservation tuple.
#[derive(Debug, Clone)]
pub struct LrtEntry {
    /// Lock address.
    pub addr: Addr,
    /// Queue head (`None` while the lock is free but the entry is kept
    /// alive by a reservation or draining overflow readers).
    pub head: Option<Node>,
    /// Queue tail.
    pub tail: Option<Node>,
    /// Readers granted in overflow mode (not in the queue).
    pub reader_cnt: u64,
    /// Writers enqueued but not yet at the head; gates overflow-read grants.
    pub waiting_writers: u64,
    /// Anti-starvation reservation for a nonblocking requestor: thread,
    /// LCU, and expiry time (§III-D).
    pub reservation: Option<(ThreadId, usize, Time)>,
    /// A writer handoff waiting for `reader_cnt` to drain:
    /// `(writer, transfer_cnt)`.
    pub pending_writer: Option<(Node, u64)>,
    /// Latest head-transfer count observed (stale notifications ignored).
    pub cnt: u64,
}

impl LrtEntry {
    fn new(addr: Addr) -> Self {
        LrtEntry {
            addr,
            head: None,
            tail: None,
            reader_cnt: 0,
            waiting_writers: 0,
            reservation: None,
            pending_writer: None,
            cnt: 0,
        }
    }

    /// An entry is dead (removable) when nothing references the lock.
    pub fn is_dead(&self, now: Time) -> bool {
        self.head.is_none()
            && self.tail.is_none()
            && self.reader_cnt == 0
            && self.pending_writer.is_none()
            && self.reservation.is_none_or(|(_, _, expiry)| expiry <= now)
    }
}

/// Where a lookup found (or placed) an entry — drives latency accounting:
/// overflow hits pay the in-memory hash-table access cost (§III-E).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Residency {
    /// Found in the SRAM table.
    Table,
    /// Found in (or spilled to) the memory-backed overflow table.
    Overflow,
}

/// A set-associative LRT backed by a per-controller in-memory overflow
/// hash table.
///
/// # Example
///
/// ```
/// use locksim_core::lrt_table::Lrt;
/// use locksim_machine::Addr;
///
/// let mut lrt = Lrt::new(512, 16);
/// let (entry, res) = lrt.entry_mut(Addr(0x40));
/// entry.reader_cnt += 1;
/// assert_eq!(res, locksim_core::lrt_table::Residency::Table);
/// ```
#[derive(Debug, Clone)]
pub struct Lrt {
    n_sets: usize,
    assoc: usize,
    sets: Vec<Vec<LrtEntry>>,
    overflow: FxHashMap<Addr, LrtEntry>,
    /// Eviction count (reported in experiment counters).
    pub evictions: u64,
    /// Overflow-table hits.
    pub overflow_hits: u64,
}

impl Lrt {
    /// Creates an LRT with `entries` total lines, `assoc`-way associative.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a positive multiple of `assoc`.
    pub fn new(entries: usize, assoc: usize) -> Self {
        assert!(assoc > 0 && entries > 0 && entries.is_multiple_of(assoc));
        let n_sets = entries / assoc;
        Lrt {
            n_sets,
            assoc,
            sets: (0..n_sets).map(|_| Vec::new()).collect(),
            overflow: FxHashMap::default(),
            evictions: 0,
            overflow_hits: 0,
        }
    }

    fn set_of(&self, addr: Addr) -> usize {
        // Cheap address hash; word-granular lock addresses map across sets.
        (addr.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % self.n_sets
    }

    /// Looks up `addr`, returning the entry and where it lives. Does not
    /// allocate.
    pub fn get_mut(&mut self, addr: Addr) -> Option<(&mut LrtEntry, Residency)> {
        let set = self.set_of(addr);
        // Split-borrow dance: find index first.
        if let Some(pos) = self.sets[set].iter().position(|e| e.addr == addr) {
            return Some((&mut self.sets[set][pos], Residency::Table));
        }
        if self.overflow.contains_key(&addr) {
            self.overflow_hits += 1;
            return self
                .overflow
                .get_mut(&addr)
                .map(|e| (e, Residency::Overflow));
        }
        None
    }

    /// Looks up or allocates the entry for `addr`. Allocation may evict a
    /// victim line to the overflow table.
    pub fn entry_mut(&mut self, addr: Addr) -> (&mut LrtEntry, Residency) {
        let set = self.set_of(addr);
        if let Some(pos) = self.sets[set].iter().position(|e| e.addr == addr) {
            return (&mut self.sets[set][pos], Residency::Table);
        }
        if self.overflow.contains_key(&addr) {
            self.overflow_hits += 1;
            // Bring the entry back to the table (swapping out a victim if
            // the set is full), as the paper describes.
            let entry = self.overflow.remove(&addr).expect("just checked");
            if self.sets[set].len() >= self.assoc {
                let victim = self.sets[set].swap_remove(0);
                self.evictions += 1;
                self.overflow.insert(victim.addr, victim);
            }
            self.sets[set].push(entry);
            let last = self.sets[set].len() - 1;
            return (&mut self.sets[set][last], Residency::Overflow);
        }
        // Fresh allocation.
        let mut residency = Residency::Table;
        if self.sets[set].len() >= self.assoc {
            let victim = self.sets[set].swap_remove(0);
            self.evictions += 1;
            residency = Residency::Overflow;
            self.overflow.insert(victim.addr, victim);
        }
        self.sets[set].push(LrtEntry::new(addr));
        let last = self.sets[set].len() - 1;
        (&mut self.sets[set][last], residency)
    }

    /// Removes the entry for `addr` if it is dead.
    pub fn remove_if_dead(&mut self, addr: Addr, now: Time) {
        let set = self.set_of(addr);
        if let Some(pos) = self.sets[set].iter().position(|e| e.addr == addr) {
            if self.sets[set][pos].is_dead(now) {
                self.sets[set].swap_remove(pos);
            }
            return;
        }
        if let Some(e) = self.overflow.get(&addr) {
            if e.is_dead(now) {
                self.overflow.remove(&addr);
            }
        }
    }

    /// Number of live entries (table + overflow).
    pub fn len(&self) -> usize {
        self.sets.iter().map(Vec::len).sum::<usize>() + self.overflow.len()
    }

    /// Whether the LRT holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries currently spilled to memory.
    pub fn overflow_len(&self) -> usize {
        self.overflow.len()
    }

    /// All sets (diagnostics).
    pub fn debug_sets(&self) -> impl Iterator<Item = &Vec<LrtEntry>> {
        self.sets.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locksim_machine::Mode;

    fn node(t: u32) -> Node {
        Node {
            tid: ThreadId(t),
            lcu: t as usize,
            mode: Mode::Write,
            nonblocking: false,
            no_ovf: true,
        }
    }

    #[test]
    fn entry_roundtrip() {
        let mut lrt = Lrt::new(16, 4);
        let a = Addr(0x77);
        {
            let (e, res) = lrt.entry_mut(a);
            assert_eq!(res, Residency::Table);
            e.head = Some(node(1));
            e.tail = Some(node(1));
        }
        let (e, _) = lrt.get_mut(a).unwrap();
        assert_eq!(e.head.unwrap().tid, ThreadId(1));
        assert_eq!(lrt.len(), 1);
    }

    #[test]
    fn dead_entries_are_removed() {
        let mut lrt = Lrt::new(16, 4);
        let a = Addr(0x5);
        lrt.entry_mut(a);
        lrt.remove_if_dead(a, Time::ZERO);
        assert!(lrt.is_empty());
    }

    #[test]
    fn live_entries_survive_removal_attempts() {
        let mut lrt = Lrt::new(16, 4);
        let a = Addr(0x5);
        lrt.entry_mut(a).0.head = Some(node(3));
        lrt.remove_if_dead(a, Time::ZERO);
        assert_eq!(lrt.len(), 1);
    }

    #[test]
    fn reservation_keeps_entry_alive_until_expiry() {
        let mut lrt = Lrt::new(16, 4);
        let a = Addr(0x6);
        lrt.entry_mut(a).0.reservation = Some((ThreadId(9), 0, Time::from_cycles(100)));
        lrt.remove_if_dead(a, Time::from_cycles(50));
        assert_eq!(lrt.len(), 1, "unexpired reservation pins the entry");
        lrt.remove_if_dead(a, Time::from_cycles(100));
        assert!(lrt.is_empty(), "expired reservation lets the entry die");
    }

    #[test]
    fn set_overflow_spills_to_memory() {
        // 4 entries, 1-way: 4 sets of 1. Force collisions by filling with
        // many addresses; spills must land in the overflow table without
        // losing entries.
        let mut lrt = Lrt::new(4, 1);
        for i in 0..32 {
            let (e, _) = lrt.entry_mut(Addr(i));
            e.head = Some(node(i as u32));
        }
        assert_eq!(lrt.len(), 32);
        assert!(lrt.overflow_len() >= 28);
        assert!(lrt.evictions >= 28);
        // Every entry still findable with correct contents.
        for i in 0..32 {
            let (e, _) = lrt.get_mut(Addr(i)).expect("entry lost");
            assert_eq!(e.head.unwrap().tid, ThreadId(i as u32));
        }
    }

    #[test]
    fn overflowed_entry_comes_back_on_access() {
        let mut lrt = Lrt::new(2, 1);
        // Fill enough to guarantee at least one spill.
        for i in 0..8 {
            lrt.entry_mut(Addr(i)).0.head = Some(node(i as u32));
        }
        let spilled: Vec<Addr> = (0..8)
            .map(Addr)
            .filter(|a| {
                let set = lrt.set_of(*a);
                !lrt.sets[set].iter().any(|e| e.addr == *a)
            })
            .collect();
        assert!(!spilled.is_empty());
        let victim = spilled[0];
        let before = lrt.overflow_hits;
        let (_, res) = lrt.entry_mut(victim);
        assert_eq!(res, Residency::Overflow);
        assert_eq!(lrt.overflow_hits, before + 1);
        // Now resident in the table.
        let set = lrt.set_of(victim);
        assert!(lrt.sets[set].iter().any(|e| e.addr == victim));
    }
}
