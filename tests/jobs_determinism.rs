//! Parallel-determinism golden: `--jobs N` must leave every simulated
//! output byte-identical to `--jobs 1`.
//!
//! Each sweep job builds its own world from a fixed seed and the sweep
//! runner merges observability in canonical job order, so worker count
//! (and scheduling) must be invisible in the results: stdout tables,
//! verdict CSVs, HTML artifacts, metrics CSVs, `--lockstat` reports,
//! `--trace` exports, corpus entries, and run manifests. stderr is exempt —
//! progress lines from worker threads interleave with the main thread's
//! emission notes — except for the `--self-profile` table's span paths,
//! call counts and counters; its host times differ from run to run.
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

/// `--trace` keeps a ring on every run and exports the first run of the
/// lowest seed that made one; at `--jobs 2` that ring comes back from a
/// worker and must write the same file.
#[test]
fn chaossim_trace_is_byte_deterministic() {
    let (_, err) = golden(
        env!("CARGO_BIN_EXE_chaossim"),
        "chaossim_trace",
        &["--quick", "--seeds", "4", "--trace", "t.json"],
    );
    assert_parallel(&err[1]);
    for e in &err {
        assert!(e.contains("trace: wrote "), "no trace export:\n{e}");
    }
}

#[test]
fn faultsim_trace_is_byte_deterministic() {
    let (_, err) = golden(
        env!("CARGO_BIN_EXE_faultsim"),
        "faultsim_trace",
        &["--quick", "--trace", "t.json"],
    );
    assert_parallel(&err[1]);
    for e in &err {
        assert!(e.contains("trace: wrote "), "no trace export:\n{e}");
    }
}

/// The `--self-profile` table on stderr without its host times: one
/// `path calls` row per span, its path `;`-joined from the indentation,
/// then one `name value` row per counter.
fn profile_counts(stderr: &str) -> Vec<String> {
    let mut stack: Vec<&str> = Vec::new();
    let mut rows = Vec::new();
    for line in stderr
        .lines()
        .skip_while(|l| !l.starts_with("span "))
        .skip(1)
    {
        if let Some(counter) = line.strip_prefix("counter ") {
            rows.push(counter.to_string());
            continue;
        }
        let mut cols = line.split_whitespace();
        let (Some(name), Some(calls)) = (cols.next(), cols.next()) else {
            break;
        };
        if calls.parse::<u64>().is_err() {
            break;
        }
        stack.truncate((line.len() - line.trim_start().len()) / 2);
        stack.push(name);
        rows.push(format!("{} {calls}", stack.join(";")));
    }
    rows
}

/// Worker span trees fold into the main thread's in seed order, so the
/// profile names the same spans with the same call counts and counters at
/// both `--jobs` values; only host times differ.
#[test]
fn chaossim_self_profile_counts_match_across_jobs() {
    let scratch = std::env::temp_dir().join(format!(
        "locksim_jobs_golden_profile_{}",
        std::process::id()
    ));
    let runs: Vec<(Vec<u8>, String)> = ["1", "2"]
        .iter()
        .map(|j| {
            run_in(
                &scratch.join(format!("jobs{j}")),
                env!("CARGO_BIN_EXE_chaossim"),
                &[
                    "--quick",
                    "--seeds",
                    "4",
                    "--jobs",
                    j,
                    "--self-profile",
                    "p.txt",
                ],
            )
        })
        .collect();
    let _ = std::fs::remove_dir_all(&scratch);
    assert_eq!(runs[0].0, runs[1].0, "--jobs changed stdout");
    assert_parallel(&runs[1].1);
    let seq = profile_counts(&runs[0].1);
    assert!(
        seq.iter()
            .any(|r| r.starts_with("faults/drive;sim/run_for "))
            && seq.iter().any(|r| r.starts_with("trace/records ")),
        "no profile table on stderr:\n{}",
        runs[0].1
    );
    assert_eq!(
        seq,
        profile_counts(&runs[1].1),
        "--jobs changed the profile"
    );
}
