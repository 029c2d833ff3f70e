//! Transactional data structures: shadow implementations that map each
//! operation to the set of objects a transaction reads and writes.
//!
//! The shadow structure holds the *logical* state; the STM driver times the
//! accesses through the simulated memory and lock system. `plan` computes
//! the access path read-only; `perform` applies the operation (called once,
//! at commit, with all conflicts excluded by validation) and reports every
//! node it actually modified so their versions can be bumped.

mod hashtable;
mod rbtree;
mod skiplist;

pub use hashtable::HashTable;
pub use rbtree::RbTree;
pub use skiplist::SkipList;

use crate::object::ObjId;

/// A transactional operation on a keyed set structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Membership query (read-only).
    Lookup(u64),
    /// Insert a key (no-op if present).
    Insert(u64),
    /// Remove a key (no-op if absent).
    Delete(u64),
}

impl Op {
    /// The key the operation targets.
    pub fn key(self) -> u64 {
        match self {
            Op::Lookup(k) | Op::Insert(k) | Op::Delete(k) => k,
        }
    }
}

/// The objects a transaction attempt will read and (estimated) write, plus
/// an auxiliary value threaded to `perform` (e.g. a skip-list level drawn
/// at plan time so the write-set estimate matches the mutation).
#[derive(Debug, Clone, Default)]
pub struct Plan {
    /// Objects read during the operation (the access path).
    pub reads: Vec<ObjId>,
    /// Objects expected to be modified.
    pub writes: Vec<ObjId>,
    /// Operation-specific value fixed at plan time.
    pub aux: u64,
}

/// A keyed-set structure usable by the STM driver.
pub trait TxStructure {
    /// Computes the access path of `op` against the current state without
    /// modifying anything. `aux_seed` provides plan-time randomness (skip
    /// list levels).
    fn plan(&self, op: Op, aux_seed: u64) -> Plan;

    /// Applies `op` (with the plan's `aux`), allocating new nodes from
    /// `alloc`/`space`, and returns every existing object that was
    /// modified. Called exactly once per committed transaction.
    fn perform(
        &mut self,
        space: &mut crate::object::ObjectSpace,
        alloc: &mut locksim_machine::Alloc,
        op: Op,
        aux: u64,
    ) -> Vec<ObjId>;

    /// Whether `key` is currently present (for tests and drivers).
    fn contains(&self, key: u64) -> bool;

    /// Number of keys stored.
    fn len(&self) -> usize;

    /// Whether the structure is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Checks internal invariants, panicking on violation (tests).
    fn check_invariants(&self);
}
