//! Workload programs for the locksim experiments.
//!
//! * [`microbench`] — the single-lock critical-section microbenchmark
//!   behind the paper's Figures 9 and 10.
//! * [`apps`] — synthetic application kernels with the locking patterns of
//!   Figure 13's Fluidanimate, Cholesky and Radiosity.
//!
//! STM workloads (Figures 11–12) live in `locksim-stm`; the experiment
//! harness composes everything.

#![forbid(unsafe_code)]

pub mod apps;
pub mod microbench;

pub use apps::{CholeskyThread, FluidConfig, FluidGrid, FluidThread, RadiosityThread};
pub use microbench::{CsThread, IterPool};
