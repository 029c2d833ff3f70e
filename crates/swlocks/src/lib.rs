//! Software lock algorithms executed against the simulated coherence
//! protocol.
//!
//! Each algorithm is a per-thread state machine whose steps are *real
//! memory operations* (loads, stores, atomic RMWs) issued through the MESI
//! model, so its cost — and its pathologies — emerge from coherence
//! traffic rather than being asserted:
//!
//! * [`SwAlg::Tas`] — test-and-set: every attempt is an atomic swap, so a
//!   contended lock ping-pongs in M state between caches.
//! * [`SwAlg::Tatas`] — test-and-test-and-set: spins reading a shared copy
//!   (no traffic) and swaps only when the lock looks free; releases trigger
//!   a thundering herd of refetches.
//! * [`SwAlg::Mcs`] — the Mellor-Crummey–Scott queue lock: per-thread queue
//!   nodes, local spinning, one invalidation + refetch per handoff.
//! * [`SwAlg::Mrsw`] — a fair reader-writer queue lock in the spirit of
//!   Mellor-Crummey & Scott (PPoPP '91): writers queue MCS-style, readers
//!   maintain a shared counter that becomes the coherence hotspot the paper
//!   measures (two atomic RMWs per reader, more under writer contention).
//! * [`SwAlg::Posix`] — an adaptive mutex (spin-then-park TATAS), standing
//!   in for Solaris `pthread_mutex` in the application benchmarks.
//! * [`SwAlg::Bravo`] — a BRAVO-style biased reader-writer lock (Dice &
//!   Kogan, ATC '19): readers publish into a global visible-readers table
//!   (one CAS on a private slot line) while the lock is biased; writers
//!   take the underlying MRSW lock and revoke the bias by scanning the
//!   table, with an adaptive re-bias inhibit window.
//! * [`SwAlg::Fissile`] — a Fissile-style reader-writer lock (Dice &
//!   Kogan, 2020): an inner MCS core serializes writers; readers
//!   aggregate on an outer lock word (`fetch_add` ±2 around a WRITE bit)
//!   and roll back when a writer is present.
//!
//! Trylock (`try_for`) is supported by the unstructured locks (TAS, TATAS,
//! Posix); queue-based locks reject it, matching the paper's observation
//! that no trylock mechanism exists for queue-based RW locks.
//!
//! # Example
//!
//! ```
//! use locksim_machine::{testing::ScriptProgram, Action, MachineConfig, Mode, World};
//! use locksim_swlocks::{SwAlg, SwLockBackend};
//!
//! let backend = SwLockBackend::new(SwAlg::Mcs);
//! let mut w = World::new(MachineConfig::model_a(4), Box::new(backend), 1);
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
mod bravo;
mod fissile;
mod mcs;
mod mrsw;
mod state;
mod tas;

pub use backend::{SwAlg, SwLockBackend};
