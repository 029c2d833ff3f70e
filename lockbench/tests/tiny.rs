//! End-to-end runs of the `lockbench` binary at tiny scale, from the
//! repository root as a user would start it.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use locksim_lockbench::results::{self, WorkloadResult};
use locksim_report::json::{self, Value};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits in the repository")
        .to_path_buf()
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Runs `lockbench --scale tiny` with `extra` arguments and output under
/// `out`; returns the parsed last line and the written result file.
fn run(out: &Path, extra: &[&str]) -> (Value, Vec<WorkloadResult>) {
    let o = Command::new(env!("CARGO_BIN_EXE_lockbench"))
        .args(["--scale", "tiny", "--out"])
        .arg(out)
        .args(extra)
        .current_dir(repo_root())
        .output()
        .expect("start lockbench");
    let stderr = String::from_utf8_lossy(&o.stderr);
    assert!(o.status.success(), "lockbench failed:\n{stderr}");
    let stdout = String::from_utf8(o.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    let line = json::parse(last).unwrap_or_else(|e| panic!("{e}: {last}"));
    let file = fs::read_to_string(out.join("lockbench.json")).expect("lockbench.json written");
    (
        line,
        results::from_json(&file).expect("lockbench.json parses"),
    )
}

#[test]
fn two_tiny_runs_pass_with_identical_digests() {
    let dir = fresh_dir("tiny-twice");
    let mut digests = Vec::new();
    for i in 0..2 {
        let (line, res) = run(&dir.join(format!("run{i}")), &[]);
        assert_eq!(line.get_bool("correct"), Ok(true));
        assert_eq!(line.get_num("failed"), Ok(0.0));
        assert_eq!(res.len(), 4);
        for r in &res {
            assert_eq!(
                r.reading("fail_rate").map(|m| m.value),
                Some(0.0),
                "{}",
                r.workload
            );
            assert!(r.reading("wall_s").unwrap().value > 0.0);
        }
        let d: Vec<(String, String)> = res
            .iter()
            .map(|r| (r.workload.clone(), r.digest.clone()))
            .collect();
        digests.push(d);
    }
    assert_eq!(digests[0], digests[1]);
}

#[test]
fn traced_pass_attributes_layers() {
    let (line, res) = run(&fresh_dir("tiny-traced"), &["--trace", "1"]);
    assert_eq!(line.get_bool("correct"), Ok(true));
    let metrics = line.get("metrics").unwrap();
    let value = |w: &str, m: &str| {
        metrics
            .get(&format!("{w}.{m}"))
            .and_then(|v| v.get_num("value"))
            .unwrap_or_else(|e| panic!("{w}.{m}: {e}"))
    };
    for r in &res {
        assert_eq!(r.metrics.len(), locksim_lockbench::metrics::PER_LAYER.len());
        let records = value(&r.workload, "trace.records");
        assert_eq!(records > 0.0, r.workload == "chaos-sweep", "{}", r.workload);
    }
    assert_eq!(value("hw-handoff", "coherence.dir_handle.self_ms"), 0.0);
    assert_eq!(value("hw-handoff", "coherence.cache_handle.self_ms"), 0.0);
    assert!(value("hw-handoff", "core.backend.self_ms") > 0.0);
    assert!(value("sw-rwlock", "coherence.dir_handle.self_ms") > 0.0);
    assert!(value("sw-rwlock", "swlocks.backend.self_ms") > 0.0);
    assert!(value("chaos-sweep", "faults.drive.self_ms") > 0.0);
}

fn tree(dir: &Path, out: &mut Vec<(PathBuf, Vec<u8>)>) {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .expect("read results tree")
        .map(|e| e.expect("directory entry").path())
        .collect();
    entries.sort();
    for p in entries {
        if p.is_dir() {
            tree(&p, out);
        } else {
            let bytes = fs::read(&p).expect("read results file");
            out.push((p, bytes));
        }
    }
}

#[test]
fn a_run_writes_only_under_out() {
    let results_dir = repo_root().join("results");
    let mut before = Vec::new();
    tree(&results_dir, &mut before);
    let out = fresh_dir("tiny-hygiene");
    run(&out, &[]);
    assert!(out.join("results/runs").is_dir());
    assert!(out.join("results/chaossim.csv").is_file());
    assert!(out.join("results/chaossim-stdout.txt").is_file());
    let mut after = Vec::new();
    tree(&results_dir, &mut after);
    assert!(before == after, "the checked-in results/ tree changed");
}
