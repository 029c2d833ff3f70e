//! Parallel-determinism golden: `--jobs N` must leave every simulated
//! output byte-identical to `--jobs 1`.
//!
//! Each sweep job builds its own world from a fixed seed and the sweep
//! runner merges observability in canonical job order, so worker count
//! (and scheduling) must be invisible in the results: stdout tables,
//! verdict CSVs, HTML artifacts, metrics CSVs, corpus entries, and run
//! manifests. stderr is exempt — progress lines from worker threads
//! interleave with the main thread's emission notes.
//!
//! The host here may have a single core; `--jobs 2` still spawns two real
//! worker threads (timesliced), so the cross-thread capture/merge path is
//! exercised either way.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Runs `bin` with `args` inside `dir` (created fresh) and returns stdout.
fn run_in(dir: &Path, bin: &str, args: &[&str]) -> Vec<u8> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create scratch dir");
    let out = Command::new(bin)
        .args(args)
        .current_dir(dir)
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
    assert!(
        out.status.success(),
        "{bin} {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

/// Every file under `dir`, as relative path → contents.
fn tree(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    fn walk(root: &Path, dir: &Path, out: &mut BTreeMap<PathBuf, Vec<u8>>) {
        for entry in std::fs::read_dir(dir).expect("read scratch dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let rel = path.strip_prefix(root).expect("under root").to_path_buf();
                out.insert(rel, std::fs::read(&path).expect("read output file"));
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(dir, dir, &mut out);
    out
}

/// Asserts the two run directories hold the same files with the same bytes.
fn assert_trees_identical(seq: &Path, par: &Path) {
    let a = tree(seq);
    let b = tree(par);
    let names = |t: &BTreeMap<PathBuf, Vec<u8>>| {
        t.keys()
            .map(|p| p.display().to_string())
            .collect::<Vec<_>>()
            .join(", ")
    };
    assert_eq!(
        names(&a),
        names(&b),
        "--jobs changed the set of files written"
    );
    for (path, bytes) in &a {
        assert_eq!(
            bytes,
            &b[path],
            "--jobs changed the bytes of {}",
            path.display()
        );
    }
    assert!(!a.is_empty(), "run produced no artifacts to compare");
}

fn golden(bin: &str, name: &str, base_args: &[&str]) {
    let scratch =
        std::env::temp_dir().join(format!("locksim_jobs_golden_{name}_{}", std::process::id()));
    let seq = scratch.join("jobs1");
    let par = scratch.join("jobs2");
    let mut seq_args = base_args.to_vec();
    seq_args.extend(["--jobs", "1"]);
    let mut par_args = base_args.to_vec();
    par_args.extend(["--jobs", "2"]);
    let out_seq = run_in(&seq, bin, &seq_args);
    let out_par = run_in(&par, bin, &par_args);
    assert_eq!(
        String::from_utf8_lossy(&out_seq),
        String::from_utf8_lossy(&out_par),
        "--jobs changed stdout"
    );
    assert_trees_identical(&seq, &par);
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn chaossim_jobs_is_byte_deterministic() {
    golden(
        env!("CARGO_BIN_EXE_chaossim"),
        "chaossim",
        &["--quick", "--corpus-out", "corpus"],
    );
}

#[test]
fn faultsim_jobs_is_byte_deterministic() {
    golden(env!("CARGO_BIN_EXE_faultsim"), "faultsim", &["--quick"]);
}
