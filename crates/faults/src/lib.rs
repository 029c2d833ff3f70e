//! # locksim-faults — deterministic fault injection & adversarial schedules
//!
//! The MICRO 2010 Lock Control Unit's central robustness claim is that a
//! hardware lock queue survives the schedules that break software queue
//! locks: a queued MCS waiter that gets descheduled stalls every successor,
//! while the LCU detects the unscheduled requester, passes the grant
//! through, and reissues the request when the thread lands on a new core.
//! This crate turns that claim into a checkable experiment:
//!
//! * [`plan`] — [`FaultPlan`]: a scenario model (programmatic builder plus
//!   a line-oriented text format) describing *what* to inject and *when* —
//!   thread suspension/resumption, forced cross-core migration, FLT entry
//!   eviction, deterministic wire delay — at absolute cycles or when a
//!   thread enters a waiting/holding protocol state.
//! * [`driver`] — [`FaultDriver`]: steps a [`World`] in fixed polling
//!   increments via `run_until_cycle`, applying due injections at exact
//!   cycles so a faulted run is byte-reproducible under a fixed seed. It
//!   arms the streaming liveness and fairness oracles
//!   ([`locksim_trace::Oracles`]) on the machine's tracer for the run,
//!   so they judge every record as it is made with no trace ring kept,
//!   exempting the suspension windows its own `fault_inject` records mark.
//!   It writes the [`Violation`]s back as trace records, lockstat bumps and
//!   a counter. Exclusion needs no oracle: the machine's checker aborts a
//!   run at the grant that breaks it.
//! * [`report`] — the backend × fault-class matrix with verdicts, rendered
//!   as deterministic CSV and self-contained HTML.
//!
//! On top of the injection machinery sits the **chaos engine**:
//!
//! * [`fuzz`] — a seeded generator of random but valid chaos cases
//!   (workload shape + fault plan), with split RNG streams so plan
//!   generation and workload perturbation never perturb each other;
//! * [`detect`] — quiescence-based deadlock detection: a driven run whose
//!   lock-protocol progress freezes with runnable waiters blocked and no
//!   injection left to unwedge it ends in a structured [`DeadlockReport`]
//!   (with a blocking-chain dump) instead of burning its deadline;
//! * [`shrink`](mod@shrink) — a delta-debugging shrinker reducing a
//!   violating plan to a locally-minimal one (no removable event, no
//!   halvable parameter);
//! * [`resume`] — incremental candidate evaluation for the shrinker: a
//!   [`Resumer`] runs each candidate plan from a checkpoint of the adopted
//!   plan's run, taken at or before the first poll where the two runs can
//!   differ, instead of from cycle 0;
//! * [`scenario`] — the self-contained replay format (backend + seed +
//!   workload + plan + expected verdict) the `tests/corpus/` suite stores.
//!
//! The `faultsim` harness binary drives the full matrix; `chaossim` runs
//! the fuzz/soak/shrink loop.
//!
//! [`World`]: locksim_machine::World

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod detect;
pub mod driver;
pub mod fuzz;
pub mod plan;
pub mod report;
pub mod resume;
pub mod scenario;
pub mod shrink;

pub use detect::DeadlockReport;
pub use driver::{Applied, DriveOutcome, FaultDriver};
pub use fuzz::{generate, ChaosCase, ChaosWorkload, FuzzConfig};
pub use locksim_trace::Violation;
pub use plan::{FaultEvent, FaultPlan, Inject, PlanError, Trigger};
pub use report::{chaos_csv, chaos_html, csv, html, ChaosRow, MatrixCell};
pub use resume::Resumer;
pub use scenario::ChaosScenario;
pub use shrink::{shrink, ShrinkResult};
