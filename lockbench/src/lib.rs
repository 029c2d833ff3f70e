//! `lockbench`: the locksim simulator's host-time benchmark.
//!
//! Four fixed workloads run in one process, each timed from outside by
//! bracketing calls into the simulator's public functions: world, backend
//! and thread construction, STM population, `run_to_completion`, the
//! metrics snapshots, the chaos soak, and the ledger and report emitters.
//! A clean pass repeats each workload and reports medians of the
//! end-to-end metrics; a traced pass turns on `trace::prof` for one
//! repetition and reports the per-layer metrics. Every job passes a
//! correctness gate, and every repetition's simulated outputs hash to a
//! `sim_digest` that must repeat. See `README.md` beside this crate.

pub mod bench;
pub mod host;
pub mod jobs;
pub mod metrics;
pub mod results;
pub mod stats;
