//! Discrete-event simulation kernel for the locksim workspace.
//!
//! This crate provides the domain-independent pieces every other crate builds
//! on:
//!
//! * [`Time`] and [`Cycles`] — simulated time in clock cycles.
//! * [`Simulator`] — a deterministic discrete-event queue, generic over the
//!   event payload type.
//! * [`rng::RngStream`] — reproducible per-component random-number streams.
//! * [`stats`] — counters, running statistics and confidence intervals
//!   used by the experiment harness, and [`FxHashMap`], the map type for
//!   simulator-internal keys.
//!
//! # Example
//!
//! ```
//! use locksim_engine::{Simulator, Time};
//!
//! let mut sim: Simulator<&'static str> = Simulator::new();
//! sim.schedule_in(10, "b");
//! sim.schedule_in(5, "a");
//! let (t, ev) = sim.pop().unwrap();
//! assert_eq!((t, ev), (Time::from_cycles(5), "a"));
//! let (t, ev) = sim.pop().unwrap();
//! assert_eq!((t, ev), (Time::from_cycles(10), "b"));
//! assert!(sim.pop().is_none());
//! ```

pub mod rng;
pub mod stats;

mod queue;
mod time;

pub use queue::{EventSeq, Simulator};
pub use rng::RngStream;
pub use stats::FxHashMap;
pub use time::{Cycles, Time};
