//! Harness-side observability and every bin's command-line front end
//! ([`bin_cli`]): the shared `--trace` / `--lockstat` / `--self-profile`
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
//! self-contained HTML report at that path. The starvation watchdog stays
//! unarmed there; the `lockstat` bin arms it for its own runs.
//!
//! Inside a sweep job (`job`) runs file into the job's own
//! `WorkerCapture`, which the sweep hands back for the main thread to
//! merge in job order (`merge_worker`); that merge reproduces what running
//! the jobs one after another on the main thread files.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use locksim_machine::{LockStats, MetricsSnapshot, World};
use locksim_report::{RunManifest, Verdict};
use locksim_trace::{prof, render_html, HtmlSeries, SeriesSnapshot, Tracer};

use crate::table::Table;

/// The capacity of the trace ring `--trace` arms (records kept; the oldest
/// are dropped).
const TRACE_CAP: usize = 200_000;

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

/// The shared observability options, as [`parse_bin_cli`] parsed them.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(crate) struct CliOpts {
    /// Write a Chrome trace of the first run here.
    pub trace_path: Option<PathBuf>,
    /// Write the per-lock contention HTML report here.
    pub lockstat_path: Option<PathBuf>,
    /// Enable the host-side self-profiler and write the collapsed-stack
    /// profile (flamegraph/speedscope format) here.
    pub self_profile: Option<PathBuf>,
}

/// What a bin's own flag takes as its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlagKind {
    /// A non-negative integer: a count, a seed or a cycle budget.
    Number,
    /// A file or directory path.
    Path,
}

/// A bin's own flag, parsed by [`bin_cli`] next to `--quick` and the
/// [`SHARED_FLAGS`]. Every one takes a value.
#[derive(Debug, Clone, Copy)]
pub struct BinFlag {
    /// The flag, including the leading dashes (e.g. `"--seeds"`).
    name: &'static str,
    /// What its value is.
    kind: FlagKind,
}

impl BinFlag {
    /// A flag whose value is a non-negative integer.
    pub const fn number(name: &'static str) -> Self {
        BinFlag {
            name,
            kind: FlagKind::Number,
        }
    }

    /// A flag whose value is a path.
    pub const fn path(name: &'static str) -> Self {
        BinFlag {
            name,
            kind: FlagKind::Path,
        }
    }
}

/// The observability flags every bin accepts through [`bin_cli`], each
/// with its value placeholder: the one list that the unknown-argument
/// error and every bin's usage line print.
pub const SHARED_FLAGS: &[&str] = &[
    "--trace <path>",
    "--lockstat <path>",
    "--self-profile <path>",
];

/// A bin's own flags, as [`bin_cli`] parsed and checked them.
#[derive(Debug, Default)]
pub struct BinArgs {
    quick: bool,
    numbers: BTreeMap<&'static str, u64>,
    paths: BTreeMap<&'static str, PathBuf>,
}

impl BinArgs {
    /// Number flag `name`'s value, or `default` when it was not given.
    pub fn number(&self, name: &str, default: u64) -> u64 {
        self.numbers.get(name).copied().unwrap_or(default)
    }

    /// The `--jobs` worker count: 1 when the flag was not given, and 0 for
    /// one worker per host core.
    pub fn jobs(&self) -> usize {
        usize::try_from(self.number("--jobs", 1)).unwrap_or(usize::MAX)
    }

    /// Path flag `name`'s value, if it was given.
    pub fn path(&self, name: &str) -> Option<&Path> {
        self.paths.get(name).map(PathBuf::as_path)
    }
}

/// Every bin's command-line front end. Parses the process's arguments:
/// `--quick`, the [`SHARED_FLAGS`] and the bin's own `flags`. It sets
/// `LOCKSIM_QUICK` for `--quick`, applies the shared options to this
/// thread and returns the bin's own flags' values. On an unknown argument
/// or a missing or invalid value it prints the error and the bin's usage
/// line (`usage: <bin> ...`) to stderr and exits with status 2, before
/// anything runs.
pub fn bin_cli(bin: &str, flags: &[BinFlag]) -> BinArgs {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (opts, parsed) =
        parse_bin_cli(&args, flags).unwrap_or_else(|msg| usage_exit(&msg, bin, flags));
    if parsed.quick {
        std::env::set_var("LOCKSIM_QUICK", "1");
    }
    apply_opts(&opts);
    parsed
}

/// Prints `msg` and the bin's usage line, built from `--quick`, its own
/// `flags` and the [`SHARED_FLAGS`], then exits with status 2.
fn usage_exit(msg: &str, bin: &str, flags: &[BinFlag]) -> ! {
    let own = flags.iter().map(|f| match f.kind {
        FlagKind::Number => format!("[{} <n>]", f.name),
        FlagKind::Path => format!("[{} <path>]", f.name),
    });
    let shared = SHARED_FLAGS.iter().map(|f| format!("[{f}]"));
    let usage: Vec<String> = std::iter::once("[--quick]".to_string())
        .chain(own)
        .chain(shared)
        .collect();
    eprintln!("error: {msg}\nusage: {bin} {}", usage.join(" "));
    std::process::exit(2);
}

/// Parses a bin's full argument list (without the program name):
/// `--quick`, the [`SHARED_FLAGS`] and the bin's own `flags`, whose values
/// come back checked against their kind.
///
/// # Errors
///
/// Returns a message naming the flag on an unknown argument or a missing
/// or invalid value; an unknown argument's message lists every flag the
/// bin takes.
pub(crate) fn parse_bin_cli(
    args: &[String],
    flags: &[BinFlag],
) -> Result<(CliOpts, BinArgs), String> {
    let mut opts = CliOpts::default();
    let mut parsed = BinArgs::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut path = || {
            it.next()
                .map(PathBuf::from)
                .ok_or_else(|| format!("{a} requires a file path"))
        };
        match a.as_str() {
            "--quick" => parsed.quick = true,
            "--trace" => opts.trace_path = Some(path()?),
            "--lockstat" => opts.lockstat_path = Some(path()?),
            "--self-profile" => opts.self_profile = Some(path()?),
            other => {
                let Some(f) = flags.iter().find(|f| f.name == other) else {
                    let supported: Vec<&str> = std::iter::once("--quick")
                        .chain(flags.iter().map(|f| f.name))
                        .chain(SHARED_FLAGS.iter().copied())
                        .collect();
                    return Err(format!(
                        "unknown argument {other:?} (supported: {})",
                        supported.join(", ")
                    ));
                };
                let v = it
                    .next()
                    .ok_or_else(|| format!("{} requires a value", f.name))?;
                match f.kind {
                    FlagKind::Number => {
                        let n = v
                            .parse()
                            .map_err(|_| format!("{}: invalid number {v:?}", f.name))?;
                        parsed.numbers.insert(f.name, n);
                    }
                    FlagKind::Path => {
                        parsed.paths.insert(f.name, PathBuf::from(v));
                    }
                }
            }
        }
    }
    Ok((opts, parsed))
}

/// Applies observability options parsed by [`parse_bin_cli`] to this
/// thread's state. `--self-profile <path>` additionally switches on the
/// host-side span profiler; everything else leaves it disabled, where a
/// span is a single thread-local flag load.
pub(crate) fn apply_opts(opts: &CliOpts) {
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
            w.enable_trace(TRACE_CAP);
        }
        if opts.lockstat_path.is_some() {
            w.enable_lockstat(None);
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
    }

    #[test]
    fn parse_rejects_unknown_and_missing() {
        for bad in [
            &["--frobnicate"][..],
            &["--trace"],
            &["--lockstat"],
            &["--trace-cap", "512"],
            &["--watchdog-cycles", "30000"],
        ] {
            assert!(parse_bin_cli(&args(bad), &[]).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn parse_lockstat_flags() {
        let (o, _) = parse_bin_cli(&args(&["--lockstat", "out.html"]), &[]).unwrap();
        assert_eq!(o.lockstat_path, Some(PathBuf::from("out.html")));
    }

    #[test]
    fn shared_flags_mix_with_quick() {
        let (o, parsed) =
            parse_bin_cli(&args(&["--quick", "--lockstat", "r.html"]), BIN_FLAGS).unwrap();
        assert_eq!(o.lockstat_path, Some(PathBuf::from("r.html")));
        assert!(parsed.quick);
        assert!(parsed.numbers.is_empty() && parsed.paths.is_empty());
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
        let (o, parsed) = parse_bin_cli(&[], &[]).unwrap();
        assert_eq!(o, CliOpts::default());
        assert!(!parsed.quick);
        assert_eq!(parsed.jobs(), 1);
    }

    const BIN_FLAGS: &[BinFlag] = &[
        BinFlag::number("--seed"),
        BinFlag::number("--jobs"),
        BinFlag::path("--csv"),
    ];

    #[test]
    fn bin_cli_mixes_shared_and_bin_flags() {
        let (opts, parsed) = parse_bin_cli(
            &args(&[
                "--quick",
                "--lockstat",
                "r.html",
                "--seed",
                "7",
                "--jobs",
                "0",
                "--csv",
                "out.csv",
            ]),
            BIN_FLAGS,
        )
        .unwrap();
        assert_eq!(opts.lockstat_path, Some(PathBuf::from("r.html")));
        assert!(parsed.quick);
        assert_eq!(parsed.number("--seed", 42), 7);
        assert_eq!(parsed.jobs(), 0);
        assert_eq!(parsed.path("--csv"), Some(Path::new("out.csv")));
        assert_eq!(parsed.path("--html"), None);
    }

    #[test]
    fn bin_cli_names_the_unknown_flag() {
        let err = parse_bin_cli(&args(&["--frobnicate"]), BIN_FLAGS).unwrap_err();
        assert!(err.contains("--frobnicate"), "{err}");
        assert!(err.contains("--quick"), "lists --quick: {err}");
        assert!(err.contains("--seed"), "lists bin flags: {err}");
        for flag in SHARED_FLAGS {
            assert!(err.contains(flag), "lists shared flag {flag}: {err}");
        }
    }

    #[test]
    fn every_shared_flag_parses() {
        for flag in SHARED_FLAGS {
            let name = flag.split(' ').next().unwrap();
            let (opts, parsed) =
                parse_bin_cli(&args(&[name, "1"]), &[]).unwrap_or_else(|e| panic!("{flag}: {e}"));
            assert_ne!(opts, CliOpts::default(), "{flag} set no option");
            assert!(
                parsed.numbers.is_empty() && parsed.paths.is_empty(),
                "{flag}"
            );
        }
    }

    #[test]
    fn bin_cli_requires_valid_values() {
        let err = parse_bin_cli(&args(&["--seed"]), BIN_FLAGS).unwrap_err();
        assert!(err.contains("--seed requires a value"), "{err}");
        let err = parse_bin_cli(&args(&["--jobs", "many"]), BIN_FLAGS).unwrap_err();
        assert!(err.contains("--jobs: invalid number \"many\""), "{err}");
        // Shared-flag value errors propagate unchanged.
        assert!(parse_bin_cli(&args(&["--trace"]), BIN_FLAGS).is_err());
    }

    /// chaossim and faultsim refuse the flags that only ever set their
    /// defaults, and take every flag left in their tables.
    #[test]
    fn fault_bins_take_their_tables_and_refuse_removed_flags() {
        for (flags, removed) in [
            (crate::chaos::FLAGS, &["--quiesce", "--shrink-budget"][..]),
            (crate::faultsim::FLAGS, &["--horizon"]),
        ] {
            for name in removed {
                let err = parse_bin_cli(&args(&[name, "30000"]), flags).unwrap_err();
                assert!(err.contains("unknown argument"), "{name}: {err}");
            }
            for f in flags {
                let (_, parsed) = parse_bin_cli(&args(&[f.name, "12"]), flags)
                    .unwrap_or_else(|e| panic!("{}: {e}", f.name));
                match f.kind {
                    FlagKind::Number => assert_eq!(parsed.number(f.name, 0), 12, "{}", f.name),
                    FlagKind::Path => assert_eq!(parsed.path(f.name), Some(Path::new("12"))),
                }
            }
        }
    }
}
