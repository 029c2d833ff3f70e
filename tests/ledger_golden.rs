//! Golden determinism for the tail-telemetry ledger: two identical
//! simulated runs must produce byte-identical `locksim-run-v1` manifests,
//! and two dashboard renders over the same ledger must produce
//! byte-identical HTML. This is the contract CI's double-run `cmp` step
//! enforces end-to-end; here it is pinned at the library level so a
//! nondeterministic field (host time, map iteration order, float
//! formatting) fails fast in tier-1.

use locksim::core::LcuBackend;
use locksim::machine::testing::ScriptProgram;
use locksim::machine::{Action, MachineConfig, Mode, World};
use locksim::report::{read_manifests, render_dashboard, write_manifest, RunManifest, Verdict};

/// A small contended run with the series collector armed, packaged as a
/// ledger manifest exactly the way the harness bins do it.
fn run_once() -> RunManifest {
    let mut w = World::new(MachineConfig::model_a(4), Box::new(LcuBackend::new()), 7);
    w.enable_series(0);
    let lock = w.mach().alloc().alloc_line();
    for i in 0..8 {
        let mode = if i % 4 == 0 { Mode::Write } else { Mode::Read };
        w.spawn(Box::new(ScriptProgram::new(vec![
            Action::Acquire {
                lock,
                mode,
                try_for: None,
            },
            Action::Compute(2_000),
            Action::Release { lock, mode },
        ])));
    }
    w.run_to_completion();
    let snap = w.metrics_snapshot();
    let series = w.series_snapshot();
    RunManifest::from_snapshot(
        "golden",
        "lcu/x8",
        "model_a(4), 8 threads",
        w.mach_ref().seed(),
        w.mach_ref().now().cycles(),
        vec![Verdict {
            name: "oracle".to_string(),
            verdict: "pass".to_string(),
        }],
        &snap,
        Some(&series),
    )
}

#[test]
fn identical_runs_produce_byte_identical_manifests() {
    let (a, b) = (run_once(), run_once());
    assert_eq!(a.to_json(), b.to_json());
    // Sanity: the run actually recorded tail data, so the equality above
    // covers sketches and series rows, not two empty shells.
    assert!(!a.hists.is_empty(), "manifest captured histograms");
    assert!(!a.sketches.is_empty(), "manifest captured sketches");
    let series = a.series.as_ref().expect("series collector was armed");
    assert!(!series.rows.is_empty(), "series recorded windows");
}

#[test]
fn dashboard_renders_byte_identically_across_ledger_round_trips() {
    let m = run_once();
    let dir = std::env::temp_dir().join(format!("locksim-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Write the ledger twice from scratch; the on-disk bytes must match.
    let mut written = Vec::new();
    for _ in 0..2 {
        let _ = std::fs::remove_dir_all(&dir);
        let path = write_manifest(&dir, &m).expect("write manifest");
        written.push(std::fs::read(&path).expect("read manifest back"));
    }
    assert_eq!(written[0], written[1], "manifest files differ across runs");

    // Two renders over a read-back ledger must also match byte-for-byte.
    let ledger = read_manifests(&dir);
    assert_eq!(ledger.len(), 1);
    let html1 = render_dashboard(&ledger);
    let html2 = render_dashboard(&read_manifests(&dir));
    assert_eq!(html1, html2, "dashboard HTML differs across renders");
    assert!(html1.contains("p99.9"), "tail table present");
    let _ = std::fs::remove_dir_all(&dir);
}
