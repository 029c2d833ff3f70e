//! Harness-side observability: the shared `--trace` / `--lockstat` CLI
//! flags and the per-figure metrics accumulation behind the emitted
//! "Metrics" sections.
//!
//! Every experiment executor in [`crate::run`] arms the world before the
//! run (`arm`) and reports it afterwards (`observe`). When `--trace`
//! was given, every run keeps a trace ring (so an exclusion abort in any
//! run dumps its lock's history) and the first simulated run of the
//! process is exported as Chrome trace-event JSON (loadable in Perfetto or
//! `chrome://tracing`); every run additionally contributes its end-of-run
//! [`MetricsSnapshot`] to a per-series table that [`crate::run_bin`]
//! prints and saves next to the figure CSVs. When `--lockstat <path>` was
//! given, every run also collects per-lock contention statistics and
//! blocking chains, and the accumulated series render into one
//! self-contained HTML report at that path; `--watchdog-cycles <n>`
//! additionally arms the starvation watchdog at that threshold.
//!
//! Inside a sweep job (`job`) runs file into the job's own
//! `WorkerCapture`, which the sweep hands back for the main thread to
//! merge in job order (`merge_worker`); that merge reproduces what running
//! the jobs one after another on the main thread files.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use locksim_machine::{LockStats, MetricsSnapshot, World};
use locksim_report::{RunManifest, Verdict};
use locksim_trace::{prof, render_html, HtmlSeries, SeriesSnapshot, Tracer};

use crate::table::Table;

/// Default `--trace` ring capacity (records kept; oldest are dropped).
const DEFAULT_TRACE_CAP: usize = 200_000;

/// One run's lockstat capture, kept until the end-of-process HTML render.
struct LockstatSeries {
    label: String,
    stats: LockStats,
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

/// A run's trace ring, kept for export under its series label.
struct TraceRing {
    label: String,
    tracer: Tracer,
}

/// The sweep job running on this thread.
struct Job {
    index: usize,
    /// The lowest index of the sweep's jobs that kept a trace ring so far
    /// (`usize::MAX` before any did), shared by the sweep's threads.
    traced: Arc<AtomicUsize>,
}

#[derive(Default)]
struct Obs {
    /// The parsed observability flags.
    opts: CliOpts,
    /// A trace has been exported; later runs' rings are not.
    captured: bool,
    /// The sweep job running on this thread, if any.
    job: Option<Job>,
    /// What this thread's runs filed: the running job's, or else the
    /// process's, which the `finish_*` functions drain.
    filed: WorkerCapture,
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

/// The observability flags every bin accepts through [`parse_bin_cli`],
/// each with its value placeholder: the one list that the unknown-argument
/// error and every bin's usage line ([`usage_exit`]) print.
pub const SHARED_FLAGS: &[&str] = &[
    "--trace <path>",
    "--trace-cap <records>",
    "--lockstat <path>",
    "--watchdog-cycles <n>",
    "--self-profile <path>",
];

/// Prints `msg` and a bin's usage line, `usage` (its name and its own
/// flags) followed by [`SHARED_FLAGS`], then exits with status 2.
pub fn usage_exit(msg: &str, usage: &str) -> ! {
    let shared: Vec<String> = SHARED_FLAGS.iter().map(|f| format!("[{f}]")).collect();
    eprintln!("error: {msg}\nusage: {usage} {}", shared.join(" "));
    std::process::exit(2);
}

/// Parses a bin's full argument list (without the program name): the
/// [`SHARED_FLAGS`] plus the bin-specific `flags`, whose values come back
/// keyed by name. Every bin goes through this one helper so unknown-flag
/// handling is uniform: the error names the offending argument and lists
/// everything supported.
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
                    supported.extend(SHARED_FLAGS);
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

/// Applies observability options parsed by [`parse_bin_cli`] to this
/// thread's state. `--self-profile <path>` additionally switches on the
/// host-side span profiler; everything else leaves it disabled, where a
/// span is a single thread-local flag load.
pub fn apply_opts(opts: &CliOpts) {
    if opts.self_profile.is_some() {
        prof::enable();
    }
    OBS.with(|o| o.borrow_mut().opts = opts.clone());
}

/// This thread's observability options, for sweep workers to apply.
pub(crate) fn opts() -> CliOpts {
    OBS.with(|o| o.borrow().opts.clone())
}

/// Enables instrumentation on a freshly built world: a trace ring when
/// `--trace` was given (only the first run's is exported), and per-lock
/// stats with blocking chains when `--lockstat` was given.
pub(crate) fn arm(w: &mut World) {
    OBS.with(|o| {
        let opts = &o.borrow().opts;
        // The windowed time-series collector is always on: it is bounded
        // memory, purely simulation-derived, and feeds the run-ledger
        // manifests every bin writes (0 = default window).
        w.enable_series(0);
        if opts.trace_path.is_some() {
            w.enable_trace(opts.trace_cap.unwrap_or(DEFAULT_TRACE_CAP));
        }
        if opts.lockstat_path.is_some() {
            w.enable_lockstat(opts.watchdog_cycles);
        }
    });
}

/// Reports a finished run: exports the pending trace capture (if this was
/// the armed run) and records the run's metrics snapshot and lockstat
/// capture under `label`.
pub(crate) fn observe(label: &str, w: &World) {
    export_trace(label, w);
    record_runs(label, w, 1);
    record_lockstat(label, w);
}

/// Exports the world's trace ring when `--trace` was given and no run of
/// the process has been exported yet. Inside a sweep job the ring is kept
/// in the job's capture instead, and only while no lower job keeps one:
/// the sweep then exports the first run of the lowest job that made one,
/// the run a one-by-one sweep exports.
pub(crate) fn export_trace(label: &str, w: &World) {
    OBS.with(|o| {
        let mut o = o.borrow_mut();
        let tracer = w.mach_ref().tracer();
        if o.captured || o.opts.trace_path.is_none() || !tracer.is_enabled() {
            return;
        }
        let Some(job) = &o.job else {
            write_trace(&mut o, label, tracer);
            return;
        };
        if job.traced.fetch_min(job.index, Ordering::SeqCst) > job.index {
            o.filed.trace = Some(TraceRing {
                label: label.to_string(),
                tracer: tracer.clone(),
            });
        }
    });
}

/// Writes `tracer` to the `--trace` path as the process's one export.
fn write_trace(o: &mut Obs, label: &str, tracer: &Tracer) {
    let Some(path) = &o.opts.trace_path else {
        return;
    };
    let file = std::fs::File::create(path)
        .unwrap_or_else(|e| panic!("create trace file {}: {e}", path.display()));
    let mut buf = std::io::BufWriter::new(file);
    tracer
        .export_chrome(&mut buf)
        .and_then(|()| buf.flush())
        .expect("write chrome trace");
    eprintln!(
        "trace: wrote {} records ({} dropped) for series `{label}` to {}",
        tracer.len(),
        tracer.dropped(),
        path.display()
    );
    o.captured = true;
}

/// Records `runs` runs under `label`, of which `w` is the last: the
/// capture keeps its end-of-run state and adds `runs` to the run count.
pub(crate) fn record_runs(label: &str, w: &World, runs: u64) {
    let (seed, end_cycles) = (w.mach_ref().seed(), w.mach_ref().now().cycles());
    let (snap, series) = (w.metrics_snapshot(), w.series_snapshot());
    OBS.with(|o| {
        let metrics = &mut o.borrow_mut().filed.metrics;
        let runs = runs + metrics.get(label).map_or(0, |c| c.runs);
        let capture = RunCapture {
            runs,
            seed,
            end_cycles,
            snap,
            series,
        };
        metrics.insert(label.to_string(), capture);
    });
}

/// Keeps the run's lockstat capture for the `--lockstat` report.
pub(crate) fn record_lockstat(label: &str, w: &World) {
    OBS.with(|o| {
        let mut o = o.borrow_mut();
        if o.opts.lockstat_path.is_some() && w.lockstat().is_enabled() {
            o.filed.lockstat.push(LockstatSeries {
                label: label.to_string(),
                stats: w.lockstat().clone(),
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
        let path = o.opts.lockstat_path.clone()?;
        let series = std::mem::take(&mut o.filed.lockstat);
        if series.is_empty() {
            return None;
        }
        let html_series: Vec<HtmlSeries<'_>> = series
            .iter()
            .map(|s| HtmlSeries {
                label: &s.label,
                stats: &s.stats,
                end_cycles: s.end_cycles,
            })
            .collect();
        let title = format!("lockstat — {name}");
        Some((path, render_html(&title, &html_series)))
    })
}

/// Drains the self-profiler when `--self-profile <path>` armed it: returns
/// the destination path and the aggregated report, or `None` when
/// profiling was off or recorded nothing. [`crate::finish_bin`] writes the
/// collapsed-stack file and prints the hierarchical table.
pub(crate) fn take_self_profile() -> Option<(PathBuf, locksim_trace::ProfileReport)> {
    OBS.with(|o| {
        let path = o.borrow().opts.self_profile.clone()?;
        let report = prof::take_report();
        if report.is_empty() {
            return None;
        }
        Some((path, report))
    })
}

/// Drains the accumulated per-series run captures. [`crate::finish_bin`]
/// renders them into the metrics table and the run-ledger manifests.
pub(crate) fn take_runs() -> BTreeMap<String, RunCapture> {
    OBS.with(|o| std::mem::take(&mut o.borrow_mut().filed.metrics))
}

/// The observability one sweep job's runs filed: its run captures,
/// verdicts and lockstat captures, its trace ring when it is the lowest
/// job so far to keep one, and, when it ran on a worker thread, its span
/// tree. The sweep runner (see [`crate::sweep`]) hands it back for the
/// main thread to merge in job order.
#[derive(Default)]
pub(crate) struct WorkerCapture {
    metrics: BTreeMap<String, RunCapture>,
    verdicts: BTreeMap<String, Vec<Verdict>>,
    lockstat: Vec<LockstatSeries>,
    trace: Option<TraceRing>,
    profile: prof::Profile,
}

#[cfg(test)]
impl WorkerCapture {
    /// The series labels this capture holds verdicts for.
    pub(crate) fn verdict_labels(&self) -> Vec<&str> {
        self.verdicts.keys().map(String::as_str).collect()
    }
}

/// Runs sweep job `index` on this thread and returns its result with the
/// observability its runs filed, leaving what the thread filed before
/// untouched. `traced` is shared by the sweep's jobs (see
/// [`export_trace`]). A `worker` thread's span tree goes into the capture
/// too, leaving the thread's tree empty for its next job; otherwise the
/// job's spans stay where the calling thread records them.
pub(crate) fn job<T>(
    index: usize,
    traced: &Arc<AtomicUsize>,
    worker: bool,
    f: impl FnOnce() -> T,
) -> (T, WorkerCapture) {
    let outer = OBS.with(|o| {
        let mut o = o.borrow_mut();
        o.job = Some(Job {
            index,
            traced: Arc::clone(traced),
        });
        std::mem::take(&mut o.filed)
    });
    let result = f();
    let mut capture = OBS.with(|o| {
        let mut o = o.borrow_mut();
        o.job = None;
        std::mem::replace(&mut o.filed, outer)
    });
    if worker {
        capture.profile = prof::take();
    }
    (result, capture)
}

/// Merges a job's capture into this thread's observability state. Calling
/// this on the main thread, in job order, leaves the state as running the
/// jobs there one after another would: per-label run counts accumulate and
/// the *last* merged capture for a label wins, exactly like repeated
/// [`observe`] calls; the first trace ring merged is written if no run has
/// been exported yet; span trees fold under the innermost open span.
pub(crate) fn merge_worker(c: WorkerCapture) {
    OBS.with(|o| {
        let mut o = o.borrow_mut();
        for (label, cap) in c.metrics {
            match o.filed.metrics.entry(label) {
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
        o.filed.verdicts.extend(c.verdicts);
        o.filed.lockstat.extend(c.lockstat);
        if let Some(ring) = c.trace.filter(|_| !o.captured) {
            write_trace(&mut o, &ring.label, &ring.tracer);
        }
    });
    prof::fold(c.profile);
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
        o.borrow_mut().filed.verdicts.insert(
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
    let mut verdicts = OBS.with(|o| std::mem::take(&mut o.borrow_mut().filed.verdicts));
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
        for flag in SHARED_FLAGS {
            assert!(err.contains(flag), "lists shared flag {flag}: {err}");
        }
    }

    #[test]
    fn every_shared_flag_parses() {
        for flag in SHARED_FLAGS {
            let name = flag.split(' ').next().unwrap();
            let (opts, extras) =
                parse_bin_cli(&args(&[name, "1"]), &[]).unwrap_or_else(|e| panic!("{flag}: {e}"));
            assert_ne!(opts, CliOpts::default(), "{flag} set no option");
            assert!(extras.is_empty(), "{flag}");
        }
    }

    #[test]
    fn bin_cli_requires_values() {
        let err = parse_bin_cli(&args(&["--seed"]), BIN_FLAGS).unwrap_err();
        assert!(err.contains("--seed requires a value"), "{err}");
        // Shared-flag value errors propagate unchanged.
        assert!(parse_bin_cli(&args(&["--trace"]), BIN_FLAGS).is_err());
    }
}
