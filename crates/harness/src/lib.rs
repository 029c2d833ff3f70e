//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation section against the simulator.
//!
//! Each `figN` binary prints the corresponding result table(s) as markdown
//! and writes CSVs under `results/`; `all` regenerates everything. Run
//! with `LOCKSIM_QUICK=1` for scaled-down smoke versions.
//!
//! ```text
//! cargo run --release -p locksim-harness --bin fig9
//! cargo run --release -p locksim-harness --bin all
//! ```
//!
//! Every binary accepts the [`obs::SHARED_FLAGS`]; `--trace <path>`
//! captures the first simulated run as Chrome trace-event JSON for
//! Perfetto / `chrome://tracing`. Every binary appends a metrics-registry
//! section to the markdown output and `results/` CSVs.

#![forbid(unsafe_code)]

pub mod chaos;
pub mod faultsim;
pub mod figs;
pub mod lockstat;
pub mod obs;
pub mod run;
pub mod sweep;
pub mod table;

pub use run::{
    jain_index, quick, repeat, run_app, run_microbench, run_stm, scaled, AppSel, BackendKind,
    MicroResult, ModelSel, StmResult, StmVariant, StructSel,
};
pub use table::Table;

use std::path::Path;

/// Prints tables as markdown and writes CSVs under `results/`.
///
/// # Panics
///
/// Panics if the results directory cannot be written.
pub fn emit(name: &str, tables: &[Table]) {
    let dir = Path::new("results");
    for (i, t) in tables.iter().enumerate() {
        println!("{}", t.markdown());
        let suffix = if tables.len() > 1 {
            format!("{name}_{i}")
        } else {
            name.to_string()
        };
        t.save_csv(dir, &suffix).expect("write results csv");
    }
}

/// Writes a bin's artifact to `path`, creating its parent directory.
///
/// # Panics
///
/// Panics if the directory or the file cannot be written.
pub(crate) fn write_artifact(path: &Path, content: &str) {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).expect("create artifact dir");
    }
    std::fs::write(path, content)
        .unwrap_or_else(|e| panic!("write artifact {}: {e}", path.display()));
}

/// Entry point shared by the figure binaries: parses the
/// [`obs::SHARED_FLAGS`] plus `--quick` (equivalent to `LOCKSIM_QUICK=1`)
/// through the uniform [`obs::parse_bin_cli`] helper, regenerates the
/// figure, emits its tables, and appends the metrics section collected
/// from the figure's runs (printed as markdown, saved as
/// `results/<name>_metrics.csv`).
///
/// # Panics
///
/// Panics if the results directory cannot be written.
pub fn run_bin(name: &str, f: impl FnOnce() -> Vec<Table>) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = [obs::BinFlag::switch("--quick")];
    match obs::parse_bin_cli(&args, &flags) {
        Ok((opts, extras)) => {
            if extras.contains_key("--quick") {
                std::env::set_var("LOCKSIM_QUICK", "1");
            }
            obs::apply_opts(&opts);
        }
        Err(msg) => obs::usage_exit(&msg, &format!("{name} [--quick]")),
    }
    let tables = f();
    emit(name, &tables);
    finish_bin(name);
}

/// A figure generator: produces the figure's tables from a fresh world.
pub type FigFn = fn() -> Vec<Table>;

/// Every figure of the evaluation, in the `all` bin's emission order.
pub const ALL_FIGS: &[(&str, FigFn)] = &[
    ("fig1", figs::fig1),
    ("fig8", figs::fig8),
    ("fig9", figs::fig9),
    ("fig10", figs::fig10),
    ("fig11", figs::fig11),
    ("fig12", figs::fig12),
    ("fig13", figs::fig13),
    ("fairness", figs::fairness),
    ("messages", figs::messages),
    ("swrw", figs::swrw),
    ("summary", figs::summary),
    ("ablations", figs::ablations),
];

/// Regenerates every figure (the `all` bin's work). The figures are the
/// jobs of one [`sweep`], on `jobs` worker threads; once every figure has
/// run, each one's tables and observability emit on the main thread in
/// [`ALL_FIGS`] order, so stdout and every `results/` artifact are the
/// same bytes at any `jobs`. The process-wide outputs (the `--lockstat`
/// report and the `--self-profile` stacks) cover every figure and are
/// written once, as `all`.
///
/// # Panics
///
/// Panics if the results directory cannot be written.
pub fn run_all(jobs: usize) {
    let outs = sweep::run_jobs(jobs, ALL_FIGS.len(), || false, |i| (ALL_FIGS[i].1)());
    for ((name, _), out) in ALL_FIGS.iter().zip(outs) {
        eprintln!("== regenerating {name} ==");
        let tables = sweep::include(out);
        emit(name, &tables);
        finish_figure(name);
    }
    finish_process("all");
}

/// Emits the deferred observability outputs collected during a bin's runs:
/// the metrics section and run manifests, then the `--lockstat` HTML
/// report and the `--self-profile` stacks. Split out of [`run_bin`] for
/// bins that drive their own argument parsing.
///
/// # Panics
///
/// Panics if the results directory or the report file cannot be written.
pub fn finish_bin(name: &str) {
    finish_figure(name);
    finish_process(name);
}

/// Emits one figure's metrics section (markdown and
/// `results/<name>_metrics.csv`) and its run-ledger manifests.
///
/// # Panics
///
/// Panics if the results directory cannot be written.
fn finish_figure(name: &str) {
    let runs = obs::take_runs();
    if let Some(t) = obs::metrics_table(name, &runs) {
        println!("{}", t.markdown());
        t.save_csv(Path::new("results"), &format!("{name}_metrics"))
            .expect("write metrics csv");
    }
    let manifests = obs::manifests(name, &runs);
    if !manifests.is_empty() {
        let dir = Path::new("results/runs");
        for m in &manifests {
            locksim_report::write_manifest(dir, m)
                .unwrap_or_else(|e| panic!("write run manifest to {}: {e}", dir.display()));
        }
        eprintln!(
            "ledger: wrote {} run manifest(s) to {} (aggregate with the `report` bin)",
            manifests.len(),
            dir.display()
        );
    }
}

/// Writes the outputs that cover the whole process: the `--lockstat` HTML
/// report titled `name` and the `--self-profile` collapsed stacks.
///
/// # Panics
///
/// Panics if the report or profile file cannot be written.
fn finish_process(name: &str) {
    if let Some((path, html)) = obs::take_lockstat_html(name) {
        write_artifact(&path, &html);
        eprintln!("lockstat: wrote HTML report to {}", path.display());
    }
    if let Some((path, report)) = obs::take_self_profile() {
        write_artifact(&path, &report.collapsed());
        eprintln!(
            "self-profile: wrote collapsed stacks to {} (flamegraph.pl / speedscope)",
            path.display()
        );
        eprint!("{}", report.render_table());
    }
}
