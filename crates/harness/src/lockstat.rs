//! The `lockstat` bin's workload: a writer-starvation contrast between the
//! SSB baseline and the LCU, profiled per lock.
//!
//! A pool of reader threads hammers one lock in read mode while a single
//! writer periodically asks for exclusive access. The SSB's reader
//! preference keeps granting overlapping read sessions and bounces the
//! writer's remote requests with Deny/retry, so the writer's wait grows
//! with the length of the reader stream — the paper's motivating
//! starvation anomaly. The LCU enqueues the writer in arrival order and
//! caps its wait at one reader-group drain, which stays far under the
//! watchdog threshold. Running both backends on the same schedule turns
//! the watchdog into a pass/fail oracle: SSB must flag, LCU must not.
//!
//! The modern software RW backends join the contrast as extra panels:
//! BRAVO revokes its reader bias on the writer's arrival and then waits
//! one reader-group drain behind the writer-preferring MRSW slow path,
//! and Fissile's write bit blocks new readers immediately — so both keep
//! the writer's wait bounded and must not flag either, at software-lock
//! (not LCU) handoff cost.

use std::path::PathBuf;

use locksim_machine::{LockStats, World};
use locksim_trace::{deepest_first, render_chains, StarvationFlag, WatchdogVerdict};
use locksim_workloads::{CsThread, IterPool};

use crate::obs;
use crate::run::{scaled, BackendKind, ModelSel};
use crate::table::Table;
use crate::{emit, finish_bin};

/// Watchdog threshold used when `--watchdog-cycles` is not given. Sized
/// between the LCU's worst writer wait (one reader-group drain, well under
/// 10k cycles at both scales) and the SSB's (the whole reader phase, over
/// 100k cycles even in quick mode).
pub const DEFAULT_WATCHDOG_CYCLES: u64 = 30_000;

/// Parameters of one starvation contrast run.
#[derive(Debug, Clone, Copy)]
pub struct StarvationCfg {
    /// Reader thread count.
    pub readers: usize,
    /// Total read critical sections shared across the readers.
    pub reader_iters: u64,
    /// Read critical-section length in cycles. Long enough that the read
    /// sessions of [`StarvationCfg::readers`] threads always overlap.
    pub reader_cs: u64,
    /// Write critical sections issued by the single writer.
    pub writer_iters: u64,
    /// Starvation-watchdog threshold in cycles.
    pub watchdog_cycles: u64,
    /// World seed.
    pub seed: u64,
}

impl StarvationCfg {
    /// The default contrast configuration (scaled down under
    /// `LOCKSIM_QUICK`).
    pub fn default_scaled() -> Self {
        StarvationCfg {
            readers: 8,
            reader_iters: scaled(4_000, 600),
            reader_cs: 400,
            writer_iters: scaled(20, 5),
            watchdog_cycles: DEFAULT_WATCHDOG_CYCLES,
            seed: 42,
        }
    }
}

/// Everything collected from one backend's starvation run.
#[derive(Debug)]
pub struct LockstatRun {
    /// Backend label for tables and the report.
    pub label: &'static str,
    /// Per-lock statistics and blocking chains (watchdog armed).
    pub stats: LockStats,
    /// Simulated end time.
    pub end_cycles: u64,
}

impl LockstatRun {
    /// Watchdog firings plus still-overdue waits at run end.
    pub fn all_flags(&self) -> Vec<StarvationFlag> {
        self.stats.flags_at(self.end_cycles)
    }

    /// Whether any write-mode wait tripped the watchdog.
    pub fn writer_starved(&self) -> bool {
        self.stats.watchdog_verdict(self.end_cycles) == WatchdogVerdict::Starved
    }

    /// The full text report: per-lock stats, watchdog section, chains.
    pub fn report(&self) -> String {
        format!(
            "== backend {} ==\n{}{}",
            self.label,
            self.stats.report(self.end_cycles),
            render_chains(&self.stats.chains())
        )
    }
}

/// Runs the reader-stream-vs-single-writer workload on `backend` and
/// profiles it per lock.
pub fn run_starvation(backend: BackendKind, cfg: &StarvationCfg) -> LockstatRun {
    let mach_cfg = backend.machine_config(ModelSel::A.config());
    let mut w = World::new(mach_cfg, backend.build(), cfg.seed);
    obs::arm(&mut w);
    w.enable_lockstat(Some(cfg.watchdog_cycles));
    let lock = w.mach().alloc().alloc_line();
    let data = w.mach().alloc().alloc_line();
    let reader_pool = IterPool::new(cfg.reader_iters);
    for i in 0..cfg.readers {
        // Stagger the read sections so the readers fall out of lockstep:
        // with distinct lengths the read sessions overlap persistently
        // instead of opening a writer-sized gap every round.
        let cs = cfg.reader_cs + 37 * i as u64;
        w.spawn(Box::new(
            CsThread::new(lock, data, reader_pool.clone(), 0).with_cs_compute(cs),
        ));
    }
    let writer_pool = IterPool::new(cfg.writer_iters);
    w.spawn(Box::new(CsThread::new(lock, data, writer_pool, 100)));
    w.run_to_completion();
    obs::observe(backend.label(), &w);
    let end_cycles = w.mach().now().cycles();
    LockstatRun {
        label: backend.label(),
        stats: w.lockstat().clone(),
        end_cycles,
    }
}

/// Renders the runs into the bin's tables: per-lock stats, the watchdog
/// verdicts, and the longest blocking chains.
pub fn tables(cfg: &StarvationCfg, runs: &[LockstatRun]) -> Vec<Table> {
    let mut stats = Table::new(
        format!(
            "Per-lock contention — {} readers ({} iters) vs 1 writer ({} iters), seed {}",
            cfg.readers, cfg.reader_iters, cfg.writer_iters, cfg.seed
        ),
        &[
            "backend",
            "lock",
            "acq r",
            "acq w",
            "fails",
            "wait p50",
            "wait p99",
            "max wait w",
            "hold p50",
            "queue max",
            "readers max",
            "backend counters",
        ],
    );
    for r in runs {
        for (addr, s) in r.stats.locks() {
            let aux: Vec<String> = s.aux.iter().map(|(k, v)| format!("{k}={v}")).collect();
            stats.push(vec![
                r.label.to_string(),
                format!("{addr:#x}"),
                s.acquires[0].to_string(),
                s.acquires[1].to_string(),
                s.fails.to_string(),
                s.handoff.quantile(0.50).unwrap_or(0).to_string(),
                s.handoff.quantile(0.99).unwrap_or(0).to_string(),
                s.max_wait[1].to_string(),
                s.hold.quantile(0.50).unwrap_or(0).to_string(),
                s.max_queue.to_string(),
                s.max_readers.to_string(),
                aux.join(" "),
            ]);
        }
    }

    let mut watchdog = Table::new(
        format!(
            "Starvation watchdog — threshold {} cycles",
            cfg.watchdog_cycles
        ),
        &[
            "backend",
            "verdict",
            "flags",
            "max waited",
            "flagged threads",
        ],
    );
    for r in runs {
        let flags = r.all_flags();
        let verdict = r.stats.watchdog_verdict(r.end_cycles).label();
        let max_waited = flags.iter().map(|f| f.waited).max().unwrap_or(0);
        let mut threads: Vec<u32> = flags.iter().map(|f| f.thread).collect();
        threads.sort_unstable();
        threads.dedup();
        watchdog.push(vec![
            r.label.to_string(),
            verdict.to_string(),
            flags.len().to_string(),
            max_waited.to_string(),
            threads
                .iter()
                .map(|t| format!("t{t}"))
                .collect::<Vec<_>>()
                .join(" "),
        ]);
    }

    let mut chains = Table::new(
        "Longest blocking chains (who-blocked-whom handoff runs)".to_string(),
        &["backend", "lock", "depth", "span", "total wait", "chain"],
    );
    for r in runs {
        for c in deepest_first(&r.stats.chains()) {
            chains.push(vec![
                r.label.to_string(),
                format!("{:#x}", c.lock),
                c.links.len().to_string(),
                c.span.to_string(),
                c.total_wait.to_string(),
                c.path(" -> "),
            ]);
        }
    }

    vec![stats, watchdog, chains]
}

/// Entry point of the `lockstat` bin (a root-package bin, so
/// `cargo run --bin lockstat` works without `-p locksim-harness`): parses
/// flags, runs the SSB-vs-LCU starvation contrast, and emits the tables,
/// text reports, CSVs, and HTML report.
pub fn cli_main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = [obs::BinFlag::switch("--quick")];
    let (mut opts, extras) = match obs::parse_bin_cli(&args, &flags) {
        Ok(parsed) => parsed,
        Err(msg) => obs::usage_exit(&msg, "lockstat [--quick]"),
    };
    if extras.contains_key("--quick") {
        std::env::set_var("LOCKSIM_QUICK", "1");
    }
    // This bin always writes the HTML report; --lockstat only moves it.
    if opts.lockstat_path.is_none() {
        opts.lockstat_path = Some(PathBuf::from("results/lockstat.html"));
    }

    let mut cfg = StarvationCfg::default_scaled();
    if let Some(n) = opts.watchdog_cycles {
        cfg.watchdog_cycles = n;
    }
    opts.watchdog_cycles = Some(cfg.watchdog_cycles);
    obs::apply_opts(&opts);

    let runs = [
        run_starvation(BackendKind::Ssb, &cfg),
        run_starvation(BackendKind::Lcu, &cfg),
        run_starvation(BackendKind::Sw(locksim_swlocks::SwAlg::Bravo), &cfg),
        run_starvation(BackendKind::Sw(locksim_swlocks::SwAlg::Fissile), &cfg),
    ];
    emit("lockstat", &tables(&cfg, &runs));
    for r in &runs {
        println!("{}", r.report());
    }
    finish_bin("lockstat");
}
