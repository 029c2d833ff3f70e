//! The simulated multiprocessor that every lock implementation runs on.
//!
//! This crate glues the discrete-event kernel (`locksim-engine`), the
//! network (`locksim-topo`) and the MESI protocol (`locksim-coherence`)
//! into a machine with:
//!
//! * **cores and threads** — workloads are [`Program`] state machines
//!   resumed with [`Outcome`]s and returning [`Action`]s;
//! * **an OS scheduler** — threads beyond the core count are time-sliced
//!   (with preemption, migration and context-switch costs), which is what
//!   exposes the queue-lock starvation anomaly of the paper's Figure 10;
//! * **a timed memory system** — loads/stores/RMWs run through the MESI
//!   directory protocol over the network, with real word values so software
//!   lock algorithms execute their actual pointer manipulation;
//! * **the [`LockBackend`] trait** — the plug-in point for the paper's LCU
//!   (`locksim-core`), the SSB baseline (`locksim-ssb`) and software locks
//!   (`locksim-swlocks`), plus the built-in idealized [`IdealBackend`].
//!
//! See [`World`] for the top-level API and an example.

#![forbid(unsafe_code)]

mod addr;
mod checker;
mod config;
mod ideal;
mod lock;
mod per_thread;
mod prog;
pub mod testing;
mod wire;
mod world;

pub use addr::{home_of, Addr, Alloc, WORDS_PER_LINE};
pub use checker::Checker;
pub use config::{MachineConfig, MachineModel};
pub use ideal::IdealBackend;
pub use lock::{BackendFault, LockBackend, Mode};
pub use locksim_coherence::LineAddr;
pub use per_thread::PerThread;
pub use prog::{Action, CoreId, Ctx, Forks, Outcome, Program, RmwOp, ThreadId};
pub use wire::InFlight;
pub use world::{CycleDissection, Ep, Mach, MemKind, PendingWaiter, RunExit, ThreadStats, World};

// Observability types, re-exported so downstream crates (backends, harness)
// can emit and consume traces/metrics without depending on `locksim-trace`
// directly. The trace crate's endpoint enum is re-exported as `TraceEp` to
// avoid clashing with the machine's own [`Ep`].
pub use locksim_trace::{
    Ep as TraceEp, LockStats, MetricsRegistry, MetricsSnapshot, TraceEvent, TraceKind, Tracer,
};
