//! The `chaossim` bin's engine: fuzz → soak → detect → shrink → corpus.
//!
//! Each seed maps deterministically to a
//! [`ChaosCase`](locksim_faults::ChaosCase) — a backend, a workload shape,
//! and a fuzzed [`FaultPlan`] — via the split-stream generator in
//! `locksim-faults`. The soak runner executes each case with
//! the quiescence deadlock detector armed, so a plan that wedges the run
//! (suspend a holder forever) ends in a structured `DEADLOCK` verdict with
//! a blocking-chain dump instead of burning its deadline or hanging the
//! process. Violating cases are then delta-debug shrunk to a locally
//! minimal plan and emitted as replayable [`ChaosScenario`] text — the
//! format the `tests/corpus/` suite replays in tier-1.
//!
//! Budgets are **simulated-cycle** budgets, not wall-clock: the sweep
//! stops once the cumulative simulated cycles (soak runs plus shrink
//! re-runs) cross the cap, which keeps two same-flag invocations
//! byte-identical — wall-clock safety in CI comes from an outer `timeout`.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use locksim_faults::{
    chaos_csv, chaos_html, generate, shrink, ChaosRow, ChaosScenario, ChaosWorkload, DriveOutcome,
    FaultDriver, FaultPlan, FuzzConfig, Resumer,
};
use locksim_machine::{MachineConfig, World};
use locksim_workloads::{CsThread, IterPool};

use crate::obs::{self, BinFlag};
use crate::run::{scaled, BackendKind};
use crate::table::Table;
use crate::{emit, finish_bin, write_artifact};

/// Default quiescence window for the deadlock detector, in cycles: long
/// enough that a congested-but-live run always produces a grant inside it,
/// short enough that a wedged run is cut off well before its deadline.
pub const DEFAULT_QUIESCE: u64 = 50_000;

/// Fault runs always use the 4-core model-A machine.
const N_CORES: u32 = 4;

/// Maps a chaos verdict to the corpus `expect` directive value.
pub fn expect_label(verdict: &str) -> String {
    if verdict == "pass" {
        "none".to_string()
    } else {
        verdict.to_ascii_lowercase()
    }
}

/// Runs one chaos case: builds the world for `backend`/`workload`/`seed`
/// and drives `plan` with the quiescence detector and the oracles armed;
/// [`ChaosRow::verdict_of`] judges the outcome. Fails (without running) on an unknown backend label, a read-mode
/// workload on a writer-only backend, or a plan that does not validate
/// against the workload/machine shape.
pub fn run_chaos(
    backend_label: &str,
    workload: &ChaosWorkload,
    seed: u64,
    plan: &FaultPlan,
    quiesce: u64,
) -> Result<DriveOutcome, String> {
    let label = format!("chaos/{backend_label}/s{seed}");
    run_faulted(
        backend_of(backend_label)?,
        workload,
        seed,
        plan,
        quiesce,
        &label,
    )
}

/// The world every run of a chaos case starts from: `workload`'s threads
/// on the backend labelled `backend_label`, before any injection. Fails on
/// an unknown label or a read-mode workload on a writer-only backend.
pub fn chaos_world(
    backend_label: &str,
    workload: &ChaosWorkload,
    seed: u64,
) -> Result<World, String> {
    let backend = backend_of(backend_label)?;
    check_workload(backend, workload)?;
    Ok(faulted_world(backend, workload, seed))
}

fn backend_of(label: &str) -> Result<BackendKind, String> {
    BackendKind::by_label(label).ok_or_else(|| format!("unknown backend label {label:?}"))
}

/// The one fault-run path, shared by chaos cases and faultsim cells: runs
/// `workload` on `backend` under `plan` on the 4-core model-A machine, with
/// the oracles judging it as it runs, and files its observability under
/// `label`.
/// A `quiesce` of 0 disarms the deadlock detector (a plain
/// [`FaultDriver::run`]).
pub(crate) fn run_faulted(
    backend: BackendKind,
    workload: &ChaosWorkload,
    seed: u64,
    plan: &FaultPlan,
    quiesce: u64,
    label: &str,
) -> Result<DriveOutcome, String> {
    check_workload(backend, workload)?;
    check_plan(workload, plan)?;
    let mut w = faulted_world(backend, workload, seed);
    let out = FaultDriver::new(plan.clone()).run_detected(&mut w, quiesce);
    obs::observe(label, &w);
    Ok(out)
}

/// Refuses a read-mode workload on a writer-only backend.
fn check_workload(backend: BackendKind, workload: &ChaosWorkload) -> Result<(), String> {
    if workload.write_pct < 100 && !backend.reads() {
        return Err(format!(
            "{} takes no read-mode acquires, but write-pct is {}",
            backend.label(),
            workload.write_pct
        ));
    }
    Ok(())
}

/// Refuses a plan that does not validate against the workload/machine
/// shape.
fn check_plan(workload: &ChaosWorkload, plan: &FaultPlan) -> Result<(), String> {
    plan.validate(workload.threads, N_CORES)
        .map_err(|e| format!("invalid plan: {e}"))
}

/// The world a fault run starts from: `workload`'s threads on `backend`,
/// armed for observability, before any injection.
fn faulted_world(backend: BackendKind, workload: &ChaosWorkload, seed: u64) -> World {
    let mut mach_cfg = backend.machine_config(MachineConfig::model_a(N_CORES as usize));
    if workload.lrt_pressure {
        // One direct-mapped pair of entries for one hot lock plus
        // release-in-flight churn: every extra lock line overflows.
        mach_cfg.lrt_entries = 2;
        mach_cfg.lrt_assoc = 2;
    }
    let mut w = World::new(mach_cfg, backend.build(), seed);
    obs::arm(&mut w);
    let lock = w.mach().alloc().alloc_line();
    let data = w.mach().alloc().alloc_line();
    let pool = IterPool::new(u64::from(workload.iters));
    for _ in 0..workload.threads {
        w.spawn(Box::new(
            CsThread::new(lock, data, pool.clone(), workload.write_pct)
                .with_cs_compute(workload.cs_compute),
        ));
    }
    w
}

/// Replays a scenario file's run exactly.
pub fn replay(sc: &ChaosScenario, quiesce: u64) -> Result<DriveOutcome, String> {
    run_chaos(&sc.backend, &sc.workload, sc.seed, &sc.plan, quiesce)
}

/// Parameters of one soak sweep.
#[derive(Debug, Clone)]
pub struct ChaosCfg {
    /// First fuzz seed.
    pub seed_start: u64,
    /// Number of consecutive seeds to sweep.
    pub seeds: u64,
    /// Quiescence window for the deadlock detector.
    pub quiesce: u64,
    /// Maximum candidate re-runs per shrink.
    pub shrink_budget: u64,
    /// Simulated-cycle cap on the whole sweep (soak + shrink re-runs).
    pub cycle_budget: u64,
    /// Generator bounds.
    pub fuzz: FuzzConfig,
}

impl ChaosCfg {
    /// The default configuration (scaled down under `LOCKSIM_QUICK`).
    pub fn default_scaled() -> Self {
        ChaosCfg {
            seed_start: 0,
            seeds: scaled(48, 12),
            quiesce: DEFAULT_QUIESCE,
            shrink_budget: scaled(160, 60),
            cycle_budget: scaled(600_000_000, 120_000_000),
            fuzz: FuzzConfig::default(),
        }
    }
}

/// What a soak sweep produced.
#[derive(Debug)]
pub struct SoakReport {
    /// One row per kept seed, in seed order.
    pub rows: Vec<ChaosRow>,
    /// Shrunk replayable scenarios, one per violating kept seed.
    pub shrunk: Vec<ChaosScenario>,
    /// Simulated cycles the kept seeds spent (soak runs plus shrink
    /// re-runs).
    pub cycles: u64,
    /// Seeds kept: the seed-order prefix the cycle budget admits, the same
    /// at any `--jobs`. Not the seeds executed; see `seeds_executed`.
    pub seeds_run: u64,
    /// Seeds whose run started, kept or not. Equal to `seeds_run` at
    /// `--jobs 1`; a parallel soak may start a few seeds past the cutoff
    /// before the finished ones spend the budget, and how many depends on
    /// thread timing, so this count stays out of stdout and the artifacts.
    pub seeds_executed: u64,
}

/// Everything one fuzz seed produced: its verdict row, the simulated
/// cycles it cost (soak run plus shrink re-runs), and the shrunk repro
/// when the seed violated. A pure function of the seed and `cfg`, which is
/// what lets the sweep runner execute seeds on any thread in any order.
struct SeedOutcome {
    row: ChaosRow,
    cycles: u64,
    shrunk: Option<ChaosScenario>,
}

/// Runs one fuzz seed end to end: generate, run with detection armed, and
/// — on a violation — delta-debug shrink to a locally-minimal repro. The
/// shrinker's candidates run incrementally ([`Resumer`]): each resumes the
/// adopted plan's run from a checkpoint at or before the first poll where
/// the two can differ. The seed's runs file their observability once, as
/// the last run's state with the seed's run count, plus one lockstat
/// capture per run.
fn soak_seed(cfg: &ChaosCfg, seed: u64) -> SeedOutcome {
    let case = generate(seed, &cfg.fuzz);
    let mut world = check_plan(&case.workload, &case.plan)
        .and_then(|()| chaos_world(case.backend, &case.workload, seed))
        .unwrap_or_else(|e| panic!("fuzz seed {seed} generated an unrunnable case: {e}"));
    let build = || chaos_world(case.backend, &case.workload, seed).expect("the case built once");
    let label = format!("chaos/{}/s{seed}", case.backend);
    let mut driver = FaultDriver::new(case.plan.clone());
    let out = driver.run_detected(&mut world, cfg.quiesce);
    obs::export_trace(&label, &world);
    obs::record_lockstat(&label, &world);
    let mut cycles = out.end_cycle;
    let mut row = ChaosRow::from_run(seed, case.backend, &out, case.plan.events.len());
    if row.ok() {
        obs::record_runs(&label, &world, 1);
        return SeedOutcome {
            row,
            cycles,
            shrunk: None,
        };
    }
    let target = row.verdict.clone();
    let mut resumer = Resumer::new(build, driver, out, world);
    let mut runs = 1;
    let res = shrink(
        &case.plan,
        |p| {
            // A removal that orphaned a resume etc. — not a repro.
            if check_plan(&case.workload, p).is_err() {
                return false;
            }
            let out = resumer.eval(p);
            cycles += out.end_cycle;
            let fails = ChaosRow::verdict_of(out) == target;
            runs += 1;
            obs::record_lockstat(&label, resumer.last_world());
            if fails {
                resumer.adopt();
            }
            fails
        },
        cfg.shrink_budget,
    );
    obs::record_runs(&label, resumer.last_world(), runs);
    row.shrunk_events = res.plan.events.len();
    let mut sc = ChaosScenario::from_case(&case);
    sc.plan = res.plan;
    sc.expect = expect_label(&target);
    SeedOutcome {
        row,
        cycles,
        shrunk: Some(sc),
    }
}

/// Sweeps `cfg.seeds` consecutive fuzz seeds: run each generated case with
/// detection armed, shrink every violating plan to a locally-minimal one,
/// and collect verdict rows plus replayable shrunk scenarios.
///
/// The cycle budget keeps a seed-order prefix: seed `k`'s results (rows,
/// repros, observability) are kept iff the cumulative cycles of the seeds
/// before it are under the budget. The seeds run via [`crate::sweep`], on
/// worker threads when `jobs > 1`; each adds its cycles to a shared total
/// when it finishes, and no seed is claimed once that total reaches the
/// budget. Every seed counted in the total was claimed before the next
/// claim, so the total is a lower bound on the cycles of all seeds before
/// the next unclaimed one: when claiming stops, those seeds already spend
/// the budget, and every seed the prefix keeps has run. The same seed-order
/// walk then picks the kept prefix at any worker count, so the report is
/// byte-identical to `jobs == 1`, where claiming stops exactly at the
/// cutoff. In parallel, a few seeds past the cutoff may start before the
/// total reaches the budget; they cost wall-clock, count in
/// `seeds_executed`, and leave no other trace in the output.
pub fn soak(cfg: &ChaosCfg, jobs: usize) -> SoakReport {
    let last = cfg.seed_start.saturating_add(cfg.seeds);
    let n = usize::try_from(last - cfg.seed_start).expect("seed count fits in usize");
    let spent = AtomicU64::new(0);
    let outs = crate::sweep::run_jobs(
        jobs,
        n,
        || spent.load(Ordering::SeqCst) >= cfg.cycle_budget,
        |i| {
            let so = soak_seed(cfg, cfg.seed_start + i as u64);
            spent.fetch_add(so.cycles, Ordering::SeqCst);
            so
        },
    );
    let mut report = SoakReport {
        rows: Vec::new(),
        shrunk: Vec::new(),
        cycles: 0,
        seeds_run: 0,
        seeds_executed: outs.len() as u64,
    };
    let mut outs = outs.into_iter();
    for _ in 0..n {
        if report.cycles >= cfg.cycle_budget {
            break;
        }
        let out = outs
            .next()
            .expect("claiming stops only once the seeds before the stop spend the budget");
        let so = crate::sweep::include(out);
        report.seeds_run += 1;
        report.cycles += so.cycles;
        if let Some(sc) = so.shrunk {
            report.shrunk.push(sc);
        }
        report.rows.push(so.row);
    }
    report
}

/// Writes each shrunk scenario as a corpus entry under `dir`, named
/// `s<seed>_<backend>_<expect>.txt`, and returns the paths written.
pub fn write_corpus(dir: &Path, scenarios: &[ChaosScenario]) -> Vec<PathBuf> {
    std::fs::create_dir_all(dir)
        .unwrap_or_else(|e| panic!("create corpus dir {}: {e}", dir.display()));
    let mut paths = Vec::new();
    for sc in scenarios {
        let name = format!(
            "s{:05}_{}_{}.txt",
            sc.seed,
            sc.backend.replace('+', ""),
            sc.expect
        );
        let path = dir.join(name);
        let body = format!(
            "# chaossim shrunk violation — replayed by the tests/corpus suite.\n\
             # Regenerate: cargo run --release --bin chaossim -- --seed-start {} --seeds 1\n{}",
            sc.seed,
            sc.format()
        );
        std::fs::write(&path, body)
            .unwrap_or_else(|e| panic!("write corpus entry {}: {e}", path.display()));
        paths.push(path);
    }
    paths
}

/// Renders the sweep as the bin's stdout table.
pub fn verdict_table(cfg: &ChaosCfg, report: &SoakReport) -> Table {
    let mut t = Table::new(
        format!(
            "Chaos soak — seeds {}..{} ({} run), quiesce {} cycles, {} cycles spent",
            cfg.seed_start,
            cfg.seed_start + cfg.seeds,
            report.seeds_run,
            cfg.quiesce,
            report.cycles
        ),
        &ChaosRow::COLUMNS,
    );
    for r in &report.rows {
        t.push(r.values().into());
    }
    t
}

/// chaossim's own flags, next to `--quick` and the shared observability
/// flags.
pub(crate) const FLAGS: &[BinFlag] = &[
    BinFlag::number("--seed-start"),
    BinFlag::number("--seeds"),
    BinFlag::number("--cycle-budget"),
    BinFlag::number("--jobs"),
    BinFlag::path("--corpus-out"),
    BinFlag::path("--csv"),
    BinFlag::path("--html"),
];

/// Entry point of the `chaossim` bin (a root-package bin).
pub fn cli_main() {
    let args = obs::bin_cli("chaossim", FLAGS);
    let d = ChaosCfg::default_scaled();
    let cfg = ChaosCfg {
        seed_start: args.number("--seed-start", d.seed_start),
        seeds: args.number("--seeds", d.seeds),
        cycle_budget: args.number("--cycle-budget", d.cycle_budget),
        ..d
    };
    let csv_path = args
        .path("--csv")
        .unwrap_or(Path::new("results/chaossim.csv"));
    let html_path = args
        .path("--html")
        .unwrap_or(Path::new("results/chaossim.html"));

    let report = soak(&cfg, args.jobs());
    eprintln!(
        "chaossim: executed {} of {} seeds, kept {}",
        report.seeds_executed, cfg.seeds, report.seeds_run
    );
    for r in &report.rows {
        obs::record_verdicts(
            &format!("chaos/{}/s{}", r.backend, r.seed),
            vec![("chaos".to_string(), r.verdict.clone())],
        );
    }
    emit("chaossim_verdicts", &[verdict_table(&cfg, &report)]);

    write_artifact(csv_path, &chaos_csv(&report.rows));
    write_artifact(
        html_path,
        &chaos_html(&report.rows, "chaossim — chaos soak sweep"),
    );
    eprintln!(
        "chaossim: wrote {} and {}",
        csv_path.display(),
        html_path.display()
    );
    if let Some(dir) = args.path("--corpus-out") {
        let paths = write_corpus(dir, &report.shrunk);
        eprintln!(
            "chaossim: wrote {} corpus entries to {}",
            paths.len(),
            dir.display()
        );
    }

    let violating = report.rows.iter().filter(|r| !r.ok()).count();
    let deadlocks = report.rows.iter().filter(|r| r.deadlock).count();
    println!(
        "chaossim verdict: {} seeds run, {} violating ({} deadlock), {} simulated cycles",
        report.seeds_run, violating, deadlocks, report.cycles
    );
    finish_bin("chaossim");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expect_label_maps_verdicts() {
        assert_eq!(expect_label("pass"), "none");
        assert_eq!(expect_label("DEADLOCK"), "deadlock");
        assert_eq!(expect_label("LIVENESS"), "liveness");
    }

    #[test]
    fn run_chaos_rejects_invalid_plans_without_running() {
        let wl = ChaosWorkload {
            threads: 2,
            iters: 10,
            cs_compute: 0,
            write_pct: 100,
            lrt_pressure: false,
        };
        let plan = FaultPlan::new().suspend_at(100, 7, 50);
        let err = run_chaos("lcu", &wl, 1, &plan, 0).unwrap_err();
        assert!(err.contains("thread 7 out of range"), "{err}");
        let err = run_chaos("nope", &wl, 1, &plan, 0).unwrap_err();
        assert!(err.contains("unknown backend"), "{err}");
        // A read-mode mix on a writer-only lock is refused up front instead
        // of tripping the backend's read-mode assert mid-run.
        let mixed = ChaosWorkload {
            write_pct: 50,
            ..wl
        };
        let err = run_chaos("mcs", &mixed, 1, &FaultPlan::new(), 0).unwrap_err();
        assert!(err.contains("mcs takes no read-mode acquires"), "{err}");
    }

    /// The fuzzer's backend list lives in `locksim-faults`, which cannot see
    /// the harness table; this test is the link between the two.
    #[test]
    fn fuzzer_draws_the_fault_suite_and_clamps_writer_only_rows() {
        let suite: Vec<&str> = BackendKind::fault_suite()
            .iter()
            .map(|b| b.label())
            .collect();
        assert_eq!(FuzzConfig::default().backends, suite);
        // The fuzzer clamps exactly the writer-only rows of the suite.
        let writer_only: Vec<&str> = BackendKind::fault_suite()
            .iter()
            .filter(|b| !b.reads())
            .map(|b| b.label())
            .collect();
        assert_eq!(writer_only, ["mcs"]);
        let cfg = FuzzConfig::default();
        for case in (0..500).map(|seed| generate(seed, &cfg)) {
            let kind = BackendKind::by_label(case.backend).expect(case.backend);
            assert!(kind.reads() || case.workload.write_pct == 100, "{case:?}");
        }
    }
}
