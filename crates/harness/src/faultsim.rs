//! The `faultsim` bin's workload: a backend × fault-class matrix driven by
//! the `locksim-faults` subsystem.
//!
//! Each cell runs the same seeded lock-transfer workload under one fault
//! class — thread suspension mid-queue, forced cross-core migration, FLT
//! entry eviction, LRT capacity pressure, or deterministic wire delay —
//! and judges the run with the liveness and fairness oracles. The
//! hardware queue (LCU) passes grants through a descheduled requester and
//! reissues after migration, so it keeps every cell green; a software
//! queue lock (MCS) wedges its successors behind a suspended queue node
//! and fails the liveness horizon — the paper's central robustness claim,
//! rendered as a pass/fail table plus CSV/HTML artifacts.
//!
//! One LCU-family cell fails by design: `lcu+flt` under `wire-delay`
//! trips the fairness oracle. The FLT's local fast path keeps re-granting
//! to the caching core until a conflicting remote request reaches the
//! directory, and the injected wire jitter delays exactly that
//! notification — so the owner laps each remote waiter more than
//! `fairness_k` times before handing off. That is the FLT trading bounded
//! fairness for locality under a degraded interconnect, surfaced by the
//! oracle rather than hidden; the CI smoke job pins this verdict.

use std::path::Path;

use locksim_faults::{csv, html, ChaosWorkload, FaultPlan, MatrixCell};
use locksim_machine::MachineConfig;

use crate::chaos::run_faulted;
use crate::obs::{self, BinFlag};
use crate::run::{scaled, BackendKind};
use crate::table::Table;
use crate::{emit, finish_bin, write_artifact};

/// The injected fault classes of the matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// Baseline: no injection; every backend must pass.
    None,
    /// Suspend a queued waiter for 60k cycles (double the liveness horizon).
    Suspend,
    /// Bounce a queued waiter across cores (each hop costs a full context
    /// switch and, on the LCU, a request reissue).
    Migrate,
    /// Force parked Free Lock Table entries out (LCU+FLT only).
    FltEvict,
    /// Shrink the Lock Reservation Table to force overflow handling
    /// (LCU-family only; config-level pressure, no plan events).
    LrtPressure,
    /// Delay every 3rd network message by 400 cycles for the whole run.
    WireDelay,
}

impl FaultClass {
    /// All classes, in matrix column order.
    pub const ALL: [FaultClass; 6] = [
        FaultClass::None,
        FaultClass::Suspend,
        FaultClass::Migrate,
        FaultClass::FltEvict,
        FaultClass::LrtPressure,
        FaultClass::WireDelay,
    ];

    /// Label for tables, CSV, and scenario names.
    pub fn label(self) -> &'static str {
        match self {
            FaultClass::None => "none",
            FaultClass::Suspend => "suspend",
            FaultClass::Migrate => "migrate",
            FaultClass::FltEvict => "flt-evict",
            FaultClass::LrtPressure => "lrt-pressure",
            FaultClass::WireDelay => "wire-delay",
        }
    }

    /// Whether this fault class is meaningful for `backend`; inapplicable
    /// combinations render as "n/a" cells.
    pub fn applies_to(self, backend: BackendKind) -> bool {
        let machine = backend.machine_config(MachineConfig::model_a(4));
        match self {
            FaultClass::FltEvict => machine.flt_entries > 0,
            FaultClass::LrtPressure => backend.has_lrt(),
            _ => true,
        }
    }

    /// The injection plan for this class.
    fn plan(self) -> FaultPlan {
        let base = FaultPlan::new().horizon(HORIZON).deadline(1_000_000);
        match self {
            FaultClass::None | FaultClass::LrtPressure => base,
            // Twice the horizon: a backend that wedges its queue behind the
            // sleeper must blow the liveness bound before the auto-resume.
            FaultClass::Suspend => base.suspend_when_waiting(1, 200, 2 * HORIZON),
            FaultClass::Migrate => base
                .migrate_when_waiting(1, 200, 3)
                .migrate_at(6_000, 1, 0)
                .migrate_at(12_000, 1, 2),
            FaultClass::FltEvict => {
                (1..=5).fold(base, |p, i| p.flt_evict_at(i * 1_000, (i % 4) as u32))
            }
            FaultClass::WireDelay => base.wire_delay_at(0, 3, 400),
        }
    }
}

/// Threads hammering the lock in every cell.
const THREADS: u32 = 4;

/// Liveness horizon of every cell, in effective (non-suspended) wait
/// cycles.
const HORIZON: u64 = 30_000;

/// Parameters of one matrix run.
#[derive(Debug, Clone, Copy)]
pub struct FaultsimCfg {
    /// Total critical sections shared across the threads.
    pub iters: u64,
    /// World seed.
    pub seed: u64,
}

impl FaultsimCfg {
    /// The default configuration (scaled down under `LOCKSIM_QUICK`).
    pub fn default_scaled() -> Self {
        FaultsimCfg {
            iters: scaled(400, 100),
            seed: 42,
        }
    }
}

/// Runs one cell: the seeded workload on `backend` under `class`, judged
/// by the oracles, through the fault-run path chaos cases share (with the
/// deadlock detector disarmed).
pub fn run_cell(backend: BackendKind, class: FaultClass, cfg: &FaultsimCfg) -> MatrixCell {
    if !class.applies_to(backend) {
        return MatrixCell::not_applicable(backend.label(), class.label());
    }
    // Write mode throughout: every backend, including mutex-only MCS, runs
    // the identical schedule.
    let workload = ChaosWorkload {
        threads: THREADS,
        iters: cfg.iters as u32,
        cs_compute: 20,
        write_pct: 100,
        lrt_pressure: class == FaultClass::LrtPressure,
    };
    let label = format!("{}/{}", backend.label(), class.label());
    let plan = class.plan();
    let out = run_faulted(backend, &workload, cfg.seed, &plan, 0, &label)
        .unwrap_or_else(|e| panic!("faultsim cell {label}: {e}"));
    MatrixCell::from_run(backend.label(), class.label(), &out)
}

/// Runs the full backend × fault-class matrix. With `jobs > 1` the cells
/// run on worker threads via [`crate::sweep`] — each cell is an isolated
/// deterministic run, and merging every cell's observability in row-major
/// cell order keeps the output byte-identical to `jobs == 1`.
pub fn run_matrix(cfg: &FaultsimCfg, jobs: usize) -> Vec<MatrixCell> {
    let grid: Vec<(BackendKind, FaultClass)> = BackendKind::fault_suite()
        .iter()
        .flat_map(|&b| FaultClass::ALL.into_iter().map(move |c| (b, c)))
        .collect();
    crate::sweep::run_jobs(
        jobs,
        grid.len(),
        || false,
        |i| {
            let (backend, class) = grid[i];
            run_cell(backend, class, cfg)
        },
    )
    .into_iter()
    .map(crate::sweep::include)
    .collect()
}

/// Renders the matrix as the bin's stdout table.
pub fn verdict_table(cfg: &FaultsimCfg, cells: &[MatrixCell]) -> Table {
    let mut t = Table::new(
        format!(
            "Fault-injection matrix — {THREADS} threads, {} iters, seed {}, horizon {HORIZON} cycles",
            cfg.iters, cfg.seed
        ),
        &MatrixCell::COLUMNS,
    );
    for c in cells {
        t.push(c.values().into());
    }
    t
}

/// faultsim's own flags, next to `--quick` and the shared observability
/// flags.
pub(crate) const FLAGS: &[BinFlag] = &[
    BinFlag::number("--seed"),
    BinFlag::number("--jobs"),
    BinFlag::path("--csv"),
    BinFlag::path("--html"),
];

/// Entry point of the `faultsim` bin (a root-package bin):
/// parses flags, runs the matrix, and emits the verdict table plus the
/// CSV and self-contained HTML artifacts.
pub fn cli_main() {
    let args = obs::bin_cli("faultsim", FLAGS);
    let d = FaultsimCfg::default_scaled();
    let cfg = FaultsimCfg {
        seed: args.number("--seed", d.seed),
        ..d
    };
    let csv_path = args
        .path("--csv")
        .unwrap_or(Path::new("results/faultsim.csv"));
    let html_path = args
        .path("--html")
        .unwrap_or(Path::new("results/faultsim.html"));

    let cells = run_matrix(&cfg, args.jobs());
    for c in cells.iter().filter(|c| c.verdict != "n/a") {
        obs::record_verdicts(
            &format!("{}/{}", c.backend, c.fault),
            vec![
                ("oracle".to_string(), c.verdict.clone()),
                (
                    "finished".to_string(),
                    if c.finished { "pass" } else { "fail" }.to_string(),
                ),
            ],
        );
    }
    // "_verdicts" keeps the table's CSV clear of the machine-readable
    // artifact below, which defaults to results/faultsim.csv.
    emit("faultsim_verdicts", &[verdict_table(&cfg, &cells)]);

    write_artifact(csv_path, &csv(&cells));
    write_artifact(
        html_path,
        &html(&cells, "faultsim — fault-injection matrix"),
    );
    eprintln!(
        "faultsim: wrote {} and {}",
        csv_path.display(),
        html_path.display()
    );

    let failed: Vec<String> = cells
        .iter()
        .filter(|c| !c.ok())
        .map(|c| format!("{}/{}: {}", c.backend, c.fault, c.verdict))
        .collect();
    println!(
        "faultsim verdict: {}/{} applicable cells pass{}",
        cells.iter().filter(|c| c.verdict == "pass").count(),
        cells.iter().filter(|c| c.verdict != "n/a").count(),
        if failed.is_empty() {
            String::new()
        } else {
            format!(" — oracle failures: {}", failed.join(", "))
        }
    );
    finish_bin("faultsim");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn applicability_gates_hardware_only_faults() {
        use locksim_swlocks::SwAlg;
        assert!(FaultClass::FltEvict.applies_to(BackendKind::LcuFlt));
        assert!(!FaultClass::FltEvict.applies_to(BackendKind::Lcu));
        assert!(!FaultClass::FltEvict.applies_to(BackendKind::Sw(SwAlg::Mcs)));
        assert!(FaultClass::LrtPressure.applies_to(BackendKind::Lcu));
        assert!(!FaultClass::LrtPressure.applies_to(BackendKind::Ssb));
        for &b in BackendKind::fault_suite() {
            assert!(FaultClass::None.applies_to(b));
            assert!(FaultClass::Suspend.applies_to(b));
        }
    }

    #[test]
    fn matrix_covers_every_backend_and_class() {
        let quick = FaultsimCfg { iters: 10, seed: 1 };
        // Single cheap cell smoke; the full matrix runs in the e2e tests.
        let cell = run_cell(BackendKind::Ideal, FaultClass::None, &quick);
        assert_eq!(cell.verdict, "pass");
        assert!(cell.finished);
        let na = run_cell(BackendKind::Ssb, FaultClass::LrtPressure, &quick);
        assert_eq!(na.verdict, "n/a");
    }
}
