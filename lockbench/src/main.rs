//! The `lockbench` command line. See `README.md` beside this crate.

use std::path::PathBuf;

use locksim_harness::Table;
use locksim_lockbench::bench::{self, Settings};
use locksim_lockbench::jobs::{Scale, Workload};
use locksim_lockbench::metrics;
use locksim_lockbench::results::{self, WorkloadResult};
use locksim_trace::alloc::{self, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str = "\
usage: lockbench [--workload <name>|all] [--seed <n>] [--trace [0|1]]
                 [--scale full|tiny] [--out <dir>] [--seconds <s>]
       lockbench compare <base.json> <current.json>

Workloads: hw-handoff, sw-rwlock, stm-tree, chaos-sweep (default: all).
The clean pass runs each workload 5 times and prints end-to-end medians;
--trace 1 runs the traced pass and prints the per-layer metrics.
Everything is written under --out (default target/lockbench), which also
becomes the working directory. The last line of standard output is the
result as one JSON object. --seconds is accepted for runners that pass a
time budget and otherwise ignored: the repetition count is fixed.";

fn usage_exit(msg: &str) -> ! {
    eprintln!("error: {msg}\n{USAGE}");
    std::process::exit(2);
}

struct Opts {
    workloads: Vec<Workload>,
    seed: u64,
    trace: bool,
    scale: Scale,
    out: PathBuf,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workloads: Workload::ALL.to_vec(),
        seed: 0,
        trace: false,
        scale: Scale::Full,
        out: PathBuf::from("target/lockbench"),
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        if flag == "--trace" {
            // The value is optional: a bare `--trace` turns the pass on.
            o.trace = it
                .next_if(|v| *v == "0" || *v == "1")
                .is_none_or(|v| v == "1");
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => o.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                o.workloads = vec![Workload::from_name(value)
                    .ok_or_else(|| format!("unknown workload {value:?}"))?]
            }
            "--seed" => {
                o.seed = value
                    .parse()
                    .map_err(|_| format!("--seed: invalid number {value:?}"))?
            }
            "--seconds" => {
                value
                    .parse::<f64>()
                    .map_err(|_| format!("--seconds: invalid duration {value:?}"))?;
            }
            "--scale" => {
                o.scale = match value.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    _ => return Err(format!("--scale: expected full or tiny, got {value:?}")),
                }
            }
            "--out" => o.out = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(o)
}

fn clean_table(r: &WorkloadResult, w: Workload) -> Table {
    let mut t = Table::new(
        format!(
            "lockbench {} — end to end, seed {}, {} repetitions, {} jobs attempted, {} failed, \
             sim_digest {}",
            r.workload, r.seed, r.reps, r.attempted, r.failed, r.digest
        ),
        &["metric", "unit", "median", "min", "max", "samples", "bound"],
    );
    for m in metrics::END_TO_END {
        let Some(v) = r.reading(m.name) else {
            let na = || "-".to_string();
            t.push(vec![
                m.name.to_string(),
                m.unit.to_string(),
                format!("not measured on {}", w.name()),
                na(),
                na(),
                na(),
                na(),
            ]);
            continue;
        };
        t.push(vec![
            m.name.to_string(),
            m.unit.to_string(),
            format!("{:.4}", v.value),
            format!("{:.4}", v.min),
            format!("{:.4}", v.max),
            v.samples.to_string(),
            format!("+{:.0}%", m.bound * 100.0),
        ]);
    }
    t
}

fn traced_table(t: &bench::Traced) -> Table {
    let r = &t.result;
    let mut table = Table::new(
        format!(
            "lockbench {} — per layer, seed {}, traced run {:.1} ms, sim_digest {}",
            r.workload, r.seed, t.run_ms, r.digest
        ),
        &["metric", "unit", "value", "share of traced run", "about"],
    );
    for v in &r.metrics {
        let about = metrics::find(&v.name).map_or("", |d| d.about);
        let share = if v.name.ends_with(".self_ms") && t.run_ms > 0.0 {
            format!("{:.1}%", 100.0 * v.value / t.run_ms)
        } else {
            "-".to_string()
        };
        table.push(vec![
            v.name.clone(),
            v.unit.clone(),
            format!("{:.4}", v.value),
            share,
            about.to_string(),
        ]);
    }
    table
}

fn write(path: &str, content: &str) {
    std::fs::write(path, content).unwrap_or_else(|e| panic!("write {path}: {e}"));
}

fn compare_main(args: &[String]) -> i32 {
    let [base, cur] = args else {
        usage_exit("compare takes two result files");
    };
    let load = |p: &String| {
        std::fs::read_to_string(p)
            .map_err(|e| e.to_string())
            .and_then(|text| results::from_json(&text))
            .unwrap_or_else(|e| usage_exit(&format!("{p}: {e}")))
    };
    let cmp = results::compare(&load(base), &load(cur));
    println!("{}", cmp.table.markdown());
    for f in &cmp.failures {
        println!("FAIL {f}");
    }
    println!(
        "{}",
        if cmp.failures.is_empty() {
            "compare: every metric within its bound"
        } else {
            "compare: regression"
        }
    );
    i32::from(!cmp.failures.is_empty())
}

fn main() {
    alloc::mark_installed();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "compare") {
        std::process::exit(compare_main(&args[1..]));
    }
    let o = parse(&args).unwrap_or_else(|e| usage_exit(&e));
    // The harness emitters write `results/` under the working directory,
    // so the output directory becomes it.
    std::fs::create_dir_all(&o.out)
        .and_then(|()| std::env::set_current_dir(&o.out))
        .unwrap_or_else(|e| usage_exit(&format!("--out {}: {e}", o.out.display())));
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let s = Settings {
        seed: o.seed,
        scale: o.scale,
        chaos_jobs: cores.min(2),
    };
    eprintln!(
        "lockbench: seed {}, {} host cores, chaos soak on {} workers",
        s.seed, cores, s.chaos_jobs
    );
    let mut out = Vec::new();
    for &w in &o.workloads {
        if o.trace {
            let t = bench::traced_pass(w, &s);
            let table = traced_table(&t).markdown();
            println!("{table}");
            write(&format!("{}-layers.md", w.name()), &table);
            write(
                &format!("{}-profile.collapsed", w.name()),
                &t.profile.collapsed(),
            );
            out.push(t.result);
        } else {
            let reps = bench::measure(w, &s);
            let r = bench::summarize(w, &s, &reps);
            println!("{}", clean_table(&r, w).markdown());
            out.push(r);
        }
    }
    write("lockbench.json", &results::to_json(&out));
    println!("{}", results::result_line(&out));
}
