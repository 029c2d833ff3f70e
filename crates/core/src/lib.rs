//! The **Lock Control Unit (LCU)** — a faithful model of the hardware
//! reader-writer locking mechanism from *Architectural Support for Fair
//! Reader-Writer Locking* (Vallejo et al., MICRO 2010).
//!
//! # Architecture
//!
//! Two hardware blocks cooperate (paper Figure 3):
//!
//! * a per-core **LCU** ([`lcu_table::Lcu`]) — a small table whose entries,
//!   addressed by `(lock address, threadid)`, act as the nodes of a
//!   distributed lock queue. Threads spin locally on their LCU entry;
//!   transfers go **directly LCU→LCU**, keeping the lock handoff off the
//!   home node.
//! * a per-memory-controller **LRT** ([`lrt_table::Lrt`]) — allocated on
//!   demand per locked address, holding the queue head/tail tuples, the
//!   overflow reader count, and the anti-starvation reservation.
//!
//! [`LcuBackend`] drives the full protocol over the simulated network:
//!
//! * write and read locking with queue build-up (§III-A/B), including the
//!   head-token mechanism that lets concurrent readers release in any order
//!   without breaking the queue (`RD_REL` status, token bypass);
//! * uncontended-entry deallocation and on-demand re-allocation;
//! * the release race (`RETRY`) resolution;
//! * thread suspension/migration via grant timeouts, pass-through, remote
//!   release forwarding, and request re-issue (§III-C);
//! * trylock abort with lazy entry cleanup;
//! * resource overflow: nonblocking local-request/remote-request entries,
//!   LRT overflow-mode readers with the reservation mechanism (§III-D), and
//!   the memory-backed LRT hash table (§III-E).
//!
//! One deliberate deviation, documented in `DESIGN.md`: the read→write
//! queue transition routes through the LRT (a "writer handoff"), which
//! gates the writer's grant on the overflow-reader count draining. The
//! paper leaves this interaction unspecified; the handoff preserves both
//! the direct-transfer fast path for all other cases and reader-writer
//! exclusion with overflow readers present.
//!
//! Every grant and release passes through the machine's runtime
//! reader-writer exclusion check (the machine owns it, not the backend),
//! so protocol bugs fail loudly.
//!
//! # Example
//!
//! ```
//! use locksim_core::LcuBackend;
//! use locksim_machine::{testing::ScriptProgram, Action, MachineConfig, Mode, World};
//!
//! let mut w = World::new(MachineConfig::model_a(4), Box::new(LcuBackend::new()), 1);
//! let lock = w.mach().alloc().alloc_line();
//! for _ in 0..4 {
//!     w.spawn(Box::new(ScriptProgram::new(vec![
//!         Action::Acquire { lock, mode: Mode::Write, try_for: None },
//!         Action::Compute(100),
//!         Action::Release { lock, mode: Mode::Write },
//!     ])));
//! }
//! w.run_to_completion();
//! ```

#![forbid(unsafe_code)]

mod backend;
pub mod entry;
pub mod lrt;
mod msg;

pub use backend::LcuBackend;
pub use msg::{Msg, Node};

/// Public alias of the LCU table module (named for discoverability).
pub use entry as lcu_table;
/// Public alias of the LRT table module.
pub use lrt as lrt_table;
