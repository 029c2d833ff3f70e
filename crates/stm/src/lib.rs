//! Object-based software transactional memory over the simulated machine —
//! the workload layer behind the paper's Figures 11 and 12.
//!
//! The paper evaluates RW-lock-based STM (Dice & Shavit's argument, built
//! on Fraser's OSTM) against Fraser's nonblocking OSTM, on three
//! data-structure microbenchmarks. This crate provides:
//!
//! * [`ObjectSpace`] — transactional objects with simulated lock/data
//!   addresses;
//! * [`structures`] — real red-black tree, skip list and hash table whose
//!   operations map to object read/write sets ([`TxStructure`]);
//! * [`TxThread`] — the transaction driver ([`StmKind::LockBased`] visible
//!   readers vs [`StmKind::Fraser`] invisible readers), run against any
//!   lock backend (MRSW software locks = the paper's *sw-only*, the LCU,
//!   or the SSB).
//!
//! # Example
//!
//! ```
//! use locksim_core::LcuBackend;
//! use locksim_machine::{Alloc, MachineConfig, World};
//! use locksim_stm::{ObjectSpace, RbTree, StmKind, TxShared, TxThread, TxStats, TxStructure, Op};
//! use std::cell::RefCell;
//! use std::rc::Rc;
//!
//! let mut w = World::new(MachineConfig::model_a(4), Box::new(LcuBackend::new()), 1);
//! let mut alloc = Alloc::starting_at(1 << 40);
//! let mut space = ObjectSpace::new();
//! let mut tree = RbTree::new(&mut space, &mut alloc);
//! for k in 0..64 {
//!     tree.perform(&mut space, &mut alloc, Op::Insert(k * 2), 0);
//! }
//! let shared = TxShared::new(Box::new(tree), space, alloc);
//! let stats = Rc::new(RefCell::new(TxStats::default()));
//! for _ in 0..4 {
//!     w.spawn(Box::new(TxThread::new(
//!         StmKind::LockBased, shared.clone(), stats.clone(), 10, 75, 128,
//!     )));
//! }
//! w.run_to_completion();
//! assert_eq!(stats.borrow().commits, 40);
//! ```

#![forbid(unsafe_code)]

mod driver;
mod object;
pub mod structures;

pub use driver::{StmKind, TxShared, TxStats, TxThread};
pub use object::{ObjId, ObjectSpace};
pub use structures::{HashTable, Op, Plan, RbTree, SkipList, TxStructure};
