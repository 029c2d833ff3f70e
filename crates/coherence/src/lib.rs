//! MESI directory cache-coherence protocol, expressed as pure state
//! machines.
//!
//! Software locks cost what their coherence traffic costs: a TAS lock ping-
//! pongs a line between caches, an MCS lock pays an invalidation plus a
//! re-fetch per transfer, and the MRSW reader counter becomes a coherence
//! hotspot. To reproduce the paper's software-lock baselines faithfully,
//! this crate models a line-granularity MESI protocol with a blocking home
//! directory:
//!
//! * [`CacheCtrl`] — one per core; tracks per-line `M/E/S/I` state, turns CPU
//!   loads/stores/RMWs into hits or directory requests, and reacts to
//!   invalidations/downgrades.
//! * [`DirCtrl`] — one per memory controller; serializes transactions per
//!   line (one in flight, later requests queue), invalidates sharers,
//!   collects acks, and grants data.
//!
//! Both controllers are *pure*: inputs are messages or CPU operations,
//! outputs are [`CacheAction`]/[`DirAction`] lists. The machine crate wires
//! the outputs onto the network and event queue. This keeps the protocol
//! unit-testable (including property tests that drive random traffic and
//! check the single-writer invariant) without an event loop.
//!
//! Modelling notes (documented substitutions):
//!
//! * Caches are infinite — no capacity or conflict evictions. Lock-transfer
//!   costs are dominated by *sharing* misses, which are fully modelled.
//! * The directory collects invalidation acks itself before granting
//!   ownership (no direct sharer→requestor acks), a common real design that
//!   avoids transient-state races.
//!
//! # Example
//!
//! ```
//! use locksim_coherence::{CacheCtrl, CacheId, CacheOpResult, CpuOp, LineAddr};
//!
//! let mut cache = CacheCtrl::new(CacheId(0));
//! let line = LineAddr(0x40);
//! // Cold load misses and produces a GetS request for the home directory.
//! match cache.cpu_op(line, CpuOp::Load) {
//!     CacheOpResult::Miss(req) => assert_eq!(format!("{req:?}"), "GetS"),
//!     CacheOpResult::Hit => unreachable!("cold cache cannot hit"),
//! }
//! ```

#![forbid(unsafe_code)]

mod cache;
mod dir;
mod types;

pub use cache::{CacheAction, CacheCtrl, CacheOpResult};
pub use dir::{DirAction, DirCtrl};
pub use types::{CacheId, CacheState, CacheToDir, CpuOp, DirId, DirToCache, LineAddr, ReqKind};

#[cfg(test)]
mod loop_tests;
