//! Cross-run experiment ledger and dashboard builder for locksim.
//!
//! Three pieces:
//! - [`json`]: the workspace's shared hand-rolled JSON reader (no serde
//!   anywhere in the tree).
//! - [`manifest`]: the `locksim-run-v1` schema — one JSON file per
//!   measured run, all fields simulation-derived so identical runs are
//!   byte-identical.
//! - [`dashboard`]: folds a directory of manifests into one
//!   self-contained HTML page (tail-latency tables, per-window
//!   time-series charts, verdict matrix).
//!
//! The `report` bin (root package shim) drives it:
//! `report [--runs results/runs] [--out results/dashboard.html]`.

#![forbid(unsafe_code)]

pub mod dashboard;
pub mod json;
pub mod manifest;

pub use dashboard::render_dashboard;
pub use manifest::{
    read_manifests, write_manifest, HistRow, RunManifest, SeriesOut, SeriesRow, Verdict,
};

use std::path::{Path, PathBuf};

fn usage_exit(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: report [--runs <dir>] [--out <path>]\n\
         \n\
         Aggregates locksim-run-v1 manifests (default results/runs/) into one\n\
         self-contained HTML dashboard (default results/dashboard.html)."
    );
    std::process::exit(2);
}

/// Builds the dashboard from a ledger directory; returns the HTML.
pub fn build_dashboard(runs_dir: &Path) -> String {
    render_dashboard(&read_manifests(runs_dir))
}

/// Entry point of the `report` bin (shared by the root-package shim).
pub fn cli_main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut runs = PathBuf::from("results/runs");
    let mut out = PathBuf::from("results/dashboard.html");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut take = |name: &str| -> PathBuf {
            it.next()
                .map(PathBuf::from)
                .unwrap_or_else(|| usage_exit(&format!("{name} requires a value")))
        };
        match a.as_str() {
            "--runs" => runs = take("--runs"),
            "--out" => out = take("--out"),
            other => usage_exit(&format!("unknown argument {other:?}")),
        }
    }
    let html = build_dashboard(&runs);
    if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).expect("create dashboard output dir");
    }
    std::fs::write(&out, &html)
        .unwrap_or_else(|e| panic!("write dashboard {}: {e}", out.display()));
    eprintln!(
        "report: wrote {} ({} bytes) from {}",
        out.display(),
        html.len(),
        runs.display()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_dashboard_handles_missing_dirs() {
        let html = build_dashboard(Path::new("/nonexistent/a"));
        assert!(html.contains("dashboard"));
    }
}
