//! # locksim — Architectural Support for Fair Reader-Writer Locking
//!
//! A discrete-event reproduction of the MICRO 2010 paper *Architectural
//! Support for Fair Reader-Writer Locking* (Vallejo, Beivide, Cristal,
//! Harris, Vallejo, Unsal, Valero): the **Lock Control Unit (LCU)** — a
//! per-core hardware unit for fair, queue-based, word-granular
//! reader-writer locks with direct core-to-core transfer — together with
//! every substrate its evaluation depends on.
//!
//! ## What's inside
//!
//! | Crate | Contents |
//! |---|---|
//! | [`engine`] | deterministic discrete-event kernel, RNG streams, statistics |
//! | [`topo`] | Model A (hierarchical-switch star) and Model B (multi-CMP) networks with link congestion |
//! | [`coherence`] | MESI directory protocol state machines |
//! | [`machine`] | cores, threads, OS scheduler, timed memory system, the `LockBackend` plug-in trait |
//! | [`core`] | **the paper's contribution**: LCU + LRT protocol |
//! | [`ssb`] | Synchronization State Buffer baseline (Zhu et al., ISCA'07) |
//! | [`swlocks`] | TAS, TATAS, MCS, MRSW, adaptive-mutex software locks run against the coherence model |
//! | [`stm`] | object-based STM (visible-reader lock-based OSTM and Fraser-style nonblocking) with RB-tree / skip-list / hash-table |
//! | [`workloads`] | microbenchmark + fluidanimate/cholesky/radiosity-like kernels |
//! | [`harness`] | regenerates every figure/table of the paper's evaluation |
//!
//! ## Quickstart
//!
//! ```
//! use locksim::core::LcuBackend;
//! use locksim::machine::{testing::ScriptProgram, Action, MachineConfig, Mode, World};
//!
//! // A 4-chip Model A machine with the LCU as its lock backend.
//! let mut w = World::new(MachineConfig::model_a(4), Box::new(LcuBackend::new()), 1);
//! let lock = w.mach().alloc().alloc_line();
//! for _ in 0..4 {
//!     w.spawn(Box::new(ScriptProgram::new(vec![
//!         Action::Acquire { lock, mode: Mode::Read, try_for: None },
//!         Action::Compute(1_000),
//!         Action::Release { lock, mode: Mode::Read },
//!     ])));
//! }
//! w.run_to_completion();
//! assert_eq!(w.report_counters().get("locks_granted"), 4);
//! ```
//!
//! See `DESIGN.md` for the system inventory and substitutions, and
//! `EXPERIMENTS.md` for paper-vs-measured results. Regenerate every figure
//! with `cargo run --release -p locksim-harness --bin all`.

pub use locksim_coherence as coherence;
pub use locksim_core as core;
pub use locksim_engine as engine;
pub use locksim_faults as faults;
pub use locksim_harness as harness;
pub use locksim_machine as machine;
pub use locksim_report as report;
pub use locksim_ssb as ssb;
pub use locksim_stm as stm;
pub use locksim_swlocks as swlocks;
pub use locksim_topo as topo;
pub use locksim_trace as trace;
pub use locksim_workloads as workloads;
