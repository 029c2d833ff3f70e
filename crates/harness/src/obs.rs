//! Harness-side observability: the shared `--trace` / `--lockstat` CLI
//! flags and the per-figure metrics accumulation behind the emitted
//! "Metrics" sections.
//!
//! Every experiment executor in [`crate::run`] arms the world before the
//! run (`arm`) and reports it afterwards (`observe`). When `--trace`
//! was given, the first simulated run of the process is captured into the
//! machine's trace ring and exported as Chrome trace-event JSON (loadable
//! in Perfetto or `chrome://tracing`); every run additionally contributes
//! its end-of-run [`MetricsSnapshot`] to a per-series table that
//! [`crate::run_bin`] prints and saves next to the figure CSVs. When
//! `--lockstat <path>` was given, every run also collects per-lock
//! contention statistics (plus a trace for blocking-chain analysis) and
//! the accumulated series render into one self-contained HTML report at
//! that path; `--watchdog-cycles <n>` additionally arms the starvation
//! watchdog at that threshold.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::PathBuf;

use locksim_machine::{
    blocking_chains, render_html, HtmlSeries, LockChain, LockStats, MetricsSnapshot, World,
};
use locksim_report::{RunManifest, Verdict};
use locksim_trace::SeriesSnapshot;

use crate::table::Table;

/// Default `--trace` ring capacity (records kept; oldest are dropped).
const DEFAULT_TRACE_CAP: usize = 200_000;

/// One run's lockstat capture, kept until the end-of-process HTML render.
struct LockstatSeries {
    label: String,
    stats: LockStats,
    chains: Vec<LockChain>,
    end_cycles: u64,
}

/// One series' accumulated capture: the run count plus the last run's
/// end-of-run state — everything both the metrics table and the
/// `locksim-run-v1` ledger manifest need.
pub(crate) struct RunCapture {
    /// How many runs contributed (the capture keeps the last one).
    pub runs: u64,
    /// World RNG seed of the last run.
    pub seed: u64,
    /// Simulated end time of the last run, in cycles.
    pub end_cycles: u64,
    /// Metrics-registry snapshot of the last run.
    pub snap: MetricsSnapshot,
    /// Windowed time-series of the last run (empty rows when the series
    /// collector recorded nothing).
    pub series: SeriesSnapshot,
}

struct Obs {
    trace_path: Option<PathBuf>,
    trace_cap: usize,
    lockstat_path: Option<PathBuf>,
    watchdog_cycles: Option<u64>,
    self_profile: Option<PathBuf>,
    /// A trace has been exported; later runs are left uninstrumented.
    captured: bool,
    /// Per-series (backend/variant label) run captures.
    metrics: BTreeMap<String, RunCapture>,
    /// Per-series oracle/gate verdicts, attached to the matching ledger
    /// manifest by label (faultsim cells, chaossim seeds).
    verdicts: BTreeMap<String, Vec<Verdict>>,
    /// Per-run lockstat captures, in run order.
    lockstat: Vec<LockstatSeries>,
}

impl Default for Obs {
    fn default() -> Self {
        Obs {
            trace_path: None,
            trace_cap: DEFAULT_TRACE_CAP,
            lockstat_path: None,
            watchdog_cycles: None,
            self_profile: None,
            captured: false,
            metrics: BTreeMap::new(),
            verdicts: BTreeMap::new(),
            lockstat: Vec::new(),
        }
    }
}

thread_local! {
    static OBS: RefCell<Obs> = RefCell::new(Obs::default());
}

/// Parsed harness CLI options.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CliOpts {
    /// Write a Chrome trace of the first run here.
    pub trace_path: Option<PathBuf>,
    /// Override the trace ring capacity.
    pub trace_cap: Option<usize>,
    /// Write the per-lock contention HTML report here.
    pub lockstat_path: Option<PathBuf>,
    /// Starvation-watchdog threshold in cycles.
    pub watchdog_cycles: Option<u64>,
    /// Enable the host-side self-profiler and write the collapsed-stack
    /// profile (flamegraph/speedscope format) here.
    pub self_profile: Option<PathBuf>,
}

/// A bin-specific flag recognized by [`parse_bin_cli`] on top of the
/// shared observability flags.
#[derive(Debug, Clone, Copy)]
pub struct BinFlag {
    /// The flag, including the leading dashes (e.g. `"--quick"`).
    pub name: &'static str,
    /// Whether the flag consumes the following argument as its value.
    /// Switches store `"1"` when present.
    pub takes_value: bool,
}

impl BinFlag {
    /// A switch: `name` alone, no value.
    pub const fn switch(name: &'static str) -> Self {
        BinFlag {
            name,
            takes_value: false,
        }
    }

    /// A flag that consumes the following argument as its value.
    pub const fn value(name: &'static str) -> Self {
        BinFlag {
            name,
            takes_value: true,
        }
    }
}

/// Parses a bin's full argument list (without the program name): the
/// shared observability flags (`--trace <path>`, `--trace-cap <records>`,
/// `--lockstat <path>`, `--watchdog-cycles <n>`, `--self-profile <path>`)
/// plus the bin-specific `flags`, whose values come back keyed by name.
/// Every bin goes through this one helper so unknown-flag handling is
/// uniform: the error names the offending argument and lists everything
/// supported.
///
/// # Errors
///
/// Returns a usage message naming the flag on an unknown argument or a
/// missing/invalid value.
pub fn parse_bin_cli(
    args: &[String],
    flags: &[BinFlag],
) -> Result<(CliOpts, BTreeMap<&'static str, String>), String> {
    let mut opts = CliOpts::default();
    let mut extras = BTreeMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--trace" => {
                let v = it.next().ok_or("--trace requires a file path")?;
                opts.trace_path = Some(PathBuf::from(v));
            }
            "--trace-cap" => {
                let v = it.next().ok_or("--trace-cap requires a record count")?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("--trace-cap: invalid count {v:?}"))?;
                opts.trace_cap = Some(n.max(1));
            }
            "--lockstat" => {
                let v = it.next().ok_or("--lockstat requires a file path")?;
                opts.lockstat_path = Some(PathBuf::from(v));
            }
            "--watchdog-cycles" => {
                let v = it
                    .next()
                    .ok_or("--watchdog-cycles requires a cycle count")?;
                let n: u64 = v
                    .parse()
                    .map_err(|_| format!("--watchdog-cycles: invalid count {v:?}"))?;
                opts.watchdog_cycles = Some(n);
            }
            "--self-profile" => {
                let v = it.next().ok_or("--self-profile requires a file path")?;
                opts.self_profile = Some(PathBuf::from(v));
            }
            other => {
                let Some(f) = flags.iter().find(|f| f.name == other) else {
                    let mut supported: Vec<&str> = flags.iter().map(|f| f.name).collect();
                    supported.extend([
                        "--trace <path>",
                        "--trace-cap <records>",
                        "--lockstat <path>",
                        "--watchdog-cycles <n>",
                        "--self-profile <path>",
                    ]);
                    return Err(format!(
                        "unknown argument {other:?} (supported: {})",
                        supported.join(", ")
                    ));
                };
                let value = if f.takes_value {
                    it.next()
                        .ok_or_else(|| format!("{} requires a value", f.name))?
                        .clone()
                } else {
                    "1".to_string()
                };
                extras.insert(f.name, value);
            }
        }
    }
    Ok((opts, extras))
}

/// Applies observability options parsed by [`parse_bin_cli`] to the
/// process state.
/// `--self-profile <path>` (or the `LOCKSIM_SELF_PROFILE=<path>` env var)
/// additionally switches on the host-side span profiler; everything else
/// leaves it disabled, where a span is a single thread-local flag load.
pub fn apply_opts(opts: &CliOpts) {
    let self_profile = opts.self_profile.clone().or_else(|| {
        std::env::var_os("LOCKSIM_SELF_PROFILE")
            .filter(|v| !v.is_empty())
            .map(PathBuf::from)
    });
    OBS.with(|o| {
        let mut o = o.borrow_mut();
        o.trace_path = opts.trace_path.clone();
        if let Some(cap) = opts.trace_cap {
            o.trace_cap = cap;
        }
        o.lockstat_path = opts.lockstat_path.clone();
        o.watchdog_cycles = opts.watchdog_cycles;
        o.self_profile = self_profile;
        if o.self_profile.is_some() {
            locksim_trace::prof::enable();
        }
    });
}

/// Enables instrumentation on a freshly built world: tracing when a
/// `--trace` capture is still pending, and per-lock stats (plus a trace
/// ring for blocking-chain analysis) when `--lockstat` was given. Runs
/// execute sequentially, so at most one world is armed at a time.
pub(crate) fn arm(w: &mut World) {
    OBS.with(|o| {
        let o = o.borrow();
        // The windowed time-series collector is always on: it is bounded
        // memory, purely simulation-derived, and feeds the run-ledger
        // manifests every bin writes (0 = default window).
        w.enable_series(0);
        if o.trace_path.is_some() && !o.captured {
            w.enable_trace(o.trace_cap);
        }
        if o.lockstat_path.is_some() {
            w.enable_lockstat(o.watchdog_cycles);
            if !w.mach_ref().tracer().is_enabled() {
                w.enable_trace(o.trace_cap);
            }
        }
    });
}

/// Reports a finished run: exports the pending trace capture (if this was
/// the armed run) and records the run's metrics snapshot under `label`.
pub(crate) fn observe(label: &str, w: &World) {
    let snap = w.metrics_snapshot();
    OBS.with(|o| {
        let mut o = o.borrow_mut();
        if !o.captured && w.mach_ref().tracer().is_enabled() {
            if let Some(path) = o.trace_path.clone() {
                let tracer = w.mach_ref().tracer();
                let file = std::fs::File::create(&path)
                    .unwrap_or_else(|e| panic!("create trace file {}: {e}", path.display()));
                let mut buf = std::io::BufWriter::new(file);
                tracer.export_chrome(&mut buf).expect("write chrome trace");
                eprintln!(
                    "trace: wrote {} records ({} dropped) for series `{label}` to {}",
                    tracer.len(),
                    tracer.dropped(),
                    path.display()
                );
                o.captured = true;
            }
        }
        let seed = w.mach_ref().seed();
        let end_cycles = w.mach_ref().now().cycles();
        let series = w.series_snapshot();
        let entry = o
            .metrics
            .entry(label.to_string())
            .or_insert_with(|| RunCapture {
                runs: 0,
                seed,
                end_cycles,
                snap: snap.clone(),
                series: series.clone(),
            });
        entry.runs += 1;
        entry.seed = seed;
        entry.end_cycles = end_cycles;
        entry.snap = snap;
        entry.series = series;
        if o.lockstat_path.is_some() && w.lockstat().is_enabled() {
            let chains = blocking_chains(w.mach_ref().tracer().events());
            o.lockstat.push(LockstatSeries {
                label: label.to_string(),
                stats: w.lockstat().clone(),
                chains,
                end_cycles: w.mach_ref().now().cycles(),
            });
        }
    });
}

/// Drains the accumulated lockstat captures into `(path, rendered HTML)`,
/// or `None` when `--lockstat` was not given or no instrumented run
/// happened. [`crate::run_bin`] writes the file.
pub(crate) fn take_lockstat_html(name: &str) -> Option<(PathBuf, String)> {
    OBS.with(|o| {
        let mut o = o.borrow_mut();
        let path = o.lockstat_path.clone()?;
        let series = std::mem::take(&mut o.lockstat);
        if series.is_empty() {
            return None;
        }
        let html_series: Vec<HtmlSeries<'_>> = series
            .iter()
            .map(|s| HtmlSeries {
                label: &s.label,
                stats: &s.stats,
                chains: &s.chains,
                end_cycles: s.end_cycles,
            })
            .collect();
        let title = format!("lockstat — {name}");
        Some((path, render_html(&title, &html_series)))
    })
}

/// Drains the self-profiler when `--self-profile <path>` (or
/// `LOCKSIM_SELF_PROFILE`) armed it: returns the destination path and the
/// aggregated report, or `None` when profiling was off or recorded
/// nothing. [`crate::finish_bin`] writes the collapsed-stack file and
/// prints the hierarchical table.
pub(crate) fn take_self_profile() -> Option<(PathBuf, locksim_trace::ProfileReport)> {
    OBS.with(|o| {
        let path = o.borrow().self_profile.clone()?;
        let report = locksim_trace::prof::take_report();
        if report.is_empty() {
            return None;
        }
        Some((path, report))
    })
}

/// Drains the accumulated per-series run captures. [`crate::finish_bin`]
/// renders them into the metrics table and the run-ledger manifests.
pub(crate) fn take_runs() -> BTreeMap<String, RunCapture> {
    OBS.with(|o| std::mem::take(&mut o.borrow_mut().metrics))
}

/// A worker thread's drained observability: the run captures and verdicts
/// its jobs produced, carried back to the main thread by the sweep runner
/// (see [`crate::sweep`]) and merged in canonical job order.
#[derive(Default)]
pub(crate) struct WorkerCapture {
    metrics: BTreeMap<String, RunCapture>,
    verdicts: BTreeMap<String, Vec<Verdict>>,
}

/// True when the process-wide observability options capture per-run state
/// that only works single-threaded (trace export, lockstat, the
/// self-profiler) — the sweep runner then falls back to sequential
/// execution so those captures see every run.
pub(crate) fn wants_sequential() -> bool {
    OBS.with(|o| {
        let o = o.borrow();
        o.trace_path.is_some() || o.lockstat_path.is_some() || o.self_profile.is_some()
    })
}

/// Drains this thread's run captures and verdicts into a [`WorkerCapture`].
/// Called by sweep workers after each job, so one capture holds exactly
/// one job's observability.
pub(crate) fn drain_worker() -> WorkerCapture {
    OBS.with(|o| {
        let mut o = o.borrow_mut();
        WorkerCapture {
            metrics: std::mem::take(&mut o.metrics),
            verdicts: std::mem::take(&mut o.verdicts),
        }
    })
}

/// Merges a worker's drained capture into this thread's observability
/// state. Calling this on the main thread, in canonical job order, leaves
/// OBS byte-identical to having run the jobs sequentially: per-label run
/// counts accumulate and the *last* merged capture for a label wins,
/// exactly like repeated [`observe`] calls.
pub(crate) fn merge_worker(c: WorkerCapture) {
    OBS.with(|o| {
        let mut o = o.borrow_mut();
        for (label, cap) in c.metrics {
            match o.metrics.entry(label) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(cap);
                }
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    let prev_runs = e.get().runs;
                    let slot = e.get_mut();
                    *slot = cap;
                    slot.runs += prev_runs;
                }
            }
        }
        o.verdicts.extend(c.verdicts);
    });
}

/// Renders drained run captures into the metrics table (one row per
/// counter / histogram), or `None` when no instrumented run happened.
pub(crate) fn metrics_table(name: &str, runs: &BTreeMap<String, RunCapture>) -> Option<Table> {
    if runs.is_empty() {
        return None;
    }
    let mut t = Table::new(
        format!("Metrics — {name} (registry snapshot of each series' last run)"),
        &["series", "runs", "metric", "value"],
    );
    for (label, cap) in runs {
        for (cname, v) in cap.snap.counters.iter() {
            t.push(vec![
                label.clone(),
                cap.runs.to_string(),
                format!("counter {cname}"),
                v.to_string(),
            ]);
        }
        for (hname, summary) in &cap.snap.hists {
            t.push(vec![
                label.clone(),
                cap.runs.to_string(),
                format!("hist {hname}"),
                summary.to_string(),
            ]);
        }
    }
    Some(t)
}

/// Records oracle/gate verdicts for the series named `label`; they are
/// attached to that series' ledger manifest when [`manifests`] drains.
pub(crate) fn record_verdicts(label: &str, verdicts: Vec<(String, String)>) {
    OBS.with(|o| {
        o.borrow_mut().verdicts.insert(
            label.to_string(),
            verdicts
                .into_iter()
                .map(|(name, verdict)| Verdict { name, verdict })
                .collect(),
        );
    });
}

/// Builds one `locksim-run-v1` ledger manifest per drained series,
/// attaching any verdicts recorded for its label (and draining them).
pub(crate) fn manifests(bin: &str, runs: &BTreeMap<String, RunCapture>) -> Vec<RunManifest> {
    let mut verdicts = OBS.with(|o| std::mem::take(&mut o.borrow_mut().verdicts));
    runs.iter()
        .map(|(label, cap)| {
            RunManifest::from_snapshot(
                bin,
                label,
                "",
                cap.seed,
                cap.end_cycles,
                verdicts.remove(label.as_str()).unwrap_or_default(),
                &cap.snap,
                Some(&cap.series),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_trace_flag() {
        let (o, _) = parse_bin_cli(&args(&["--trace", "out.json"]), &[]).unwrap();
        assert_eq!(o.trace_path, Some(PathBuf::from("out.json")));
        assert_eq!(o.trace_cap, None);
    }

    #[test]
    fn parse_trace_cap() {
        let (o, _) =
            parse_bin_cli(&args(&["--trace", "t.json", "--trace-cap", "512"]), &[]).unwrap();
        assert_eq!(o.trace_cap, Some(512));
        // Zero is clamped to a one-record ring rather than rejected.
        let (o, _) = parse_bin_cli(&args(&["--trace-cap", "0"]), &[]).unwrap();
        assert_eq!(o.trace_cap, Some(1));
    }

    #[test]
    fn parse_rejects_unknown_and_missing() {
        for bad in [
            &["--frobnicate"][..],
            &["--trace"],
            &["--trace-cap", "many"],
            &["--lockstat"],
            &["--watchdog-cycles", "soon"],
        ] {
            assert!(parse_bin_cli(&args(bad), &[]).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn parse_lockstat_flags() {
        let (o, _) = parse_bin_cli(
            &args(&["--lockstat", "out.html", "--watchdog-cycles", "25000"]),
            &[],
        )
        .unwrap();
        assert_eq!(o.lockstat_path, Some(PathBuf::from("out.html")));
        assert_eq!(o.watchdog_cycles, Some(25_000));
    }

    #[test]
    fn shared_flags_mix_with_bin_switches() {
        let (o, extras) =
            parse_bin_cli(&args(&["--quick", "--lockstat", "r.html"]), BIN_FLAGS).unwrap();
        assert_eq!(o.lockstat_path, Some(PathBuf::from("r.html")));
        assert_eq!(extras.keys().copied().collect::<Vec<_>>(), ["--quick"]);
        // A stray positional argument is an unknown argument.
        let err = parse_bin_cli(
            &args(&["--quick", "--lockstat", "r.html", "extra"]),
            BIN_FLAGS,
        )
        .unwrap_err();
        assert!(err.contains("\"extra\""), "{err}");
        // Value errors are hard errors too.
        assert!(parse_bin_cli(&args(&["--quick", "--trace"]), BIN_FLAGS).is_err());
    }

    #[test]
    fn empty_args_are_fine() {
        let (o, extras) = parse_bin_cli(&[], &[]).unwrap();
        assert_eq!(o, CliOpts::default());
        assert!(extras.is_empty());
    }

    const BIN_FLAGS: &[BinFlag] = &[BinFlag::switch("--quick"), BinFlag::value("--seed")];

    #[test]
    fn bin_cli_mixes_shared_and_bin_flags() {
        let (opts, extras) = parse_bin_cli(
            &args(&["--quick", "--lockstat", "r.html", "--seed", "7"]),
            BIN_FLAGS,
        )
        .unwrap();
        assert_eq!(opts.lockstat_path, Some(PathBuf::from("r.html")));
        assert_eq!(extras.get("--quick").map(String::as_str), Some("1"));
        assert_eq!(extras.get("--seed").map(String::as_str), Some("7"));
    }

    #[test]
    fn bin_cli_names_the_unknown_flag() {
        let err = parse_bin_cli(&args(&["--frobnicate"]), BIN_FLAGS).unwrap_err();
        assert!(err.contains("--frobnicate"), "{err}");
        assert!(err.contains("--quick"), "lists bin flags: {err}");
        assert!(err.contains("--trace"), "lists shared flags: {err}");
    }

    #[test]
    fn bin_cli_requires_values() {
        let err = parse_bin_cli(&args(&["--seed"]), BIN_FLAGS).unwrap_err();
        assert!(err.contains("--seed requires a value"), "{err}");
        // Shared-flag value errors propagate unchanged.
        assert!(parse_bin_cli(&args(&["--trace"]), BIN_FLAGS).is_err());
    }
}
