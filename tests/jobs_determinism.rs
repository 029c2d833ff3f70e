//! Parallel-determinism golden: `--jobs N` must leave every simulated
//! output byte-identical to `--jobs 1`.
//!
//! Each sweep job builds its own world from a fixed seed and the sweep
//! runner merges observability in canonical job order, so worker count
//! (and scheduling) must be invisible in the results: stdout tables,
//! verdict CSVs, HTML artifacts, metrics CSVs, `--lockstat` reports,
//! corpus entries, and run manifests. stderr is exempt — progress lines
//! from worker threads interleave with the main thread's emission notes.
//!
//! The host here may have a single core; `--jobs 2` still spawns two real
//! worker threads (timesliced), so the cross-thread capture/merge path is
//! exercised either way.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Runs `bin` with `args` inside `dir` (created fresh) and returns its
/// stdout and stderr.
fn run_in(dir: &Path, bin: &str, args: &[&str]) -> (Vec<u8>, String) {
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
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out.stdout, stderr)
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

/// Runs `bin` at `--jobs 1` and `--jobs 2`, asserts that stdout and every
/// file written are byte-identical, and returns the shared stdout and the
/// two runs' stderr, `--jobs 1` first.
fn golden(bin: &str, name: &str, base_args: &[&str]) -> (String, [String; 2]) {
    let scratch =
        std::env::temp_dir().join(format!("locksim_jobs_golden_{name}_{}", std::process::id()));
    let seq = scratch.join("jobs1");
    let par = scratch.join("jobs2");
    let mut seq_args = base_args.to_vec();
    seq_args.extend(["--jobs", "1"]);
    let mut par_args = base_args.to_vec();
    par_args.extend(["--jobs", "2"]);
    let (out_seq, err_seq) = run_in(&seq, bin, &seq_args);
    let (out_par, err_par) = run_in(&par, bin, &par_args);
    let stdout = String::from_utf8_lossy(&out_seq).into_owned();
    assert_eq!(
        stdout,
        String::from_utf8_lossy(&out_par),
        "--jobs changed stdout"
    );
    assert_trees_identical(&seq, &par);
    let _ = std::fs::remove_dir_all(&scratch);
    (stdout, [err_seq, err_par])
}

/// Asserts a `--jobs 2` run really ran in parallel.
fn assert_parallel(stderr: &str) {
    assert!(
        !stderr.contains("running sequentially"),
        "--jobs 2 fell back to one worker:\n{stderr}"
    );
}

#[test]
fn chaossim_jobs_is_byte_deterministic() {
    let (_, [_, err_par]) = golden(
        env!("CARGO_BIN_EXE_chaossim"),
        "chaossim",
        &["--quick", "--corpus-out", "corpus", "--lockstat", "ls.html"],
    );
    assert_parallel(&err_par);
}

/// A cycle budget that cuts the sweep: of 24 quick seeds, a 12 M-cycle
/// budget keeps seeds 0 to 8 (seeds 0 to 7 spend 9.6 M cycles, seed 8
/// another 11.8 M). At `--jobs 2` the workers stop claiming seeds once the
/// finished ones spend the budget, and the kept prefix must still match
/// `--jobs 1` exactly.
#[test]
fn chaossim_jobs_is_byte_deterministic_at_the_budget_cutoff() {
    let (stdout, [err_seq, err_par]) = golden(
        env!("CARGO_BIN_EXE_chaossim"),
        "chaossim_cut",
        &[
            "--quick",
            "--seeds",
            "24",
            "--cycle-budget",
            "12000000",
            "--corpus-out",
            "corpus",
        ],
    );
    assert!(
        stdout.contains("chaossim verdict: 9 seeds run,"),
        "{stdout}"
    );
    assert!(
        err_seq.contains("chaossim: executed 9 of 24 seeds, kept 9\n"),
        "{err_seq}"
    );
    let executed: u64 = err_par
        .lines()
        .find_map(|l| {
            l.strip_prefix("chaossim: executed ")?
                .strip_suffix(" of 24 seeds, kept 9")?
                .parse()
                .ok()
        })
        .unwrap_or_else(|| panic!("no seed count on stderr:\n{err_par}"));
    // A worker claims a seed only while the finished seeds are under the
    // budget, and each worker holds at most one unfinished seed. The 24
    // seeds minus any two of them spend over 25 M cycles, so not all run.
    assert!((9..24).contains(&executed), "{err_par}");
}

#[test]
fn faultsim_jobs_is_byte_deterministic() {
    let (_, [_, err_par]) = golden(
        env!("CARGO_BIN_EXE_faultsim"),
        "faultsim",
        &["--quick", "--lockstat", "ls.html"],
    );
    assert_parallel(&err_par);
}
