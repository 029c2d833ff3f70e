//! Differential golden for the incremental shrinker: every candidate plan
//! the shrinker evaluates from a checkpoint must end exactly as the same
//! plan run from cycle 0.
//!
//! For fuzz seeds 0..60 at chaossim's quick sizes, each violating seed is
//! shrunk through a [`Resumer`] while every candidate also runs from
//! scratch; the two must agree on the drive outcome, the metrics render
//! and the series snapshot. The soak's rows and shrunk plans must then be
//! the ones those from-scratch answers give.

use locksim::faults::{
    generate, shrink, ChaosRow, ChaosWorkload, DriveOutcome, FaultDriver, FaultPlan, Resumer,
};
use locksim::harness::chaos::{chaos_world, soak, ChaosCfg, DEFAULT_QUIESCE};
use locksim::machine::World;
use locksim::trace::SeriesSnapshot;

const SEEDS: u64 = 60;

/// chaossim's quick sizes, over every seed of the window.
fn cfg() -> ChaosCfg {
    ChaosCfg {
        seed_start: 0,
        seeds: SEEDS,
        quiesce: DEFAULT_QUIESCE,
        shrink_budget: 60,
        cycle_budget: u64::MAX,
        fuzz: Default::default(),
    }
}

/// What a candidate's run must reproduce.
#[derive(Debug, PartialEq)]
struct End {
    out: DriveOutcome,
    metrics: String,
    series: SeriesSnapshot,
}

fn end(out: &DriveOutcome, w: &World) -> End {
    End {
        out: out.clone(),
        metrics: w.metrics_snapshot().render(),
        series: w.series_snapshot(),
    }
}

#[test]
fn incremental_shrinking_equals_shrinking_from_scratch() {
    let cfg = cfg();
    let mut rows = Vec::new();
    let mut plans = Vec::new();
    let mut compared = 0;
    for seed in 0..SEEDS {
        let case = generate(seed, &cfg.fuzz);
        let build = || chaos_world(case.backend, &case.workload, seed).expect("runnable case");
        let from_scratch = |p: &FaultPlan| {
            let mut w = build();
            let out = FaultDriver::new(p.clone()).run_detected(&mut w, cfg.quiesce);
            end(&out, &w)
        };
        let mut world = build();
        let mut driver = FaultDriver::new(case.plan.clone());
        let out = driver.run_detected(&mut world, cfg.quiesce);
        let mut row = ChaosRow::from_run(seed, case.backend, &out, case.plan.events.len());
        if row.ok() {
            rows.push(row);
            continue;
        }
        let target = row.verdict.clone();
        let mut resumer = Resumer::new(build, driver, out, world);
        let res = shrink(
            &case.plan,
            |p| {
                if p.validate(case.workload.threads, cfg.fuzz.n_cores).is_err() {
                    return false;
                }
                let got = resumer.eval(p).clone();
                let got = end(&got, resumer.last_world());
                assert_eq!(got, from_scratch(p), "seed {seed}: candidate {p:?}");
                compared += 1;
                let fails = ChaosRow::verdict_of(&got.out) == target;
                if fails {
                    resumer.adopt();
                }
                fails
            },
            cfg.shrink_budget,
        );
        row.shrunk_events = res.plan.events.len();
        rows.push(row);
        plans.push(res.plan);
    }
    assert!(compared > 400, "only {compared} candidates compared");

    let report = soak(&cfg, 1);
    assert_eq!(report.rows, rows);
    let shrunk: Vec<FaultPlan> = report.shrunk.into_iter().map(|sc| sc.plan).collect();
    assert_eq!(shrunk, plans);
}

/// A candidate that diverges at the very poll its parent's run ended at
/// must run that poll: there the parent applied an event the candidate
/// lacks.
#[test]
fn a_candidate_diverging_at_the_parents_last_poll_runs_it() {
    let wl = ChaosWorkload {
        threads: 2,
        iters: 10_000,
        cs_compute: 200,
        write_pct: 100,
        lrt_pressure: false,
    };
    let build = || chaos_world("lcu", &wl, 3).expect("runnable case");
    let parent = FaultPlan::new()
        .poll(500)
        .deadline(20_000)
        .suspend_at(20_000, 0, 1_000);
    let (mut world, mut driver) = (build(), FaultDriver::new(parent.clone()));
    let out = driver.run(&mut world);
    assert_eq!(
        out.injections_applied(),
        1,
        "the suspend lands on the deadline poll"
    );
    let mut resumer = Resumer::new(build, driver, out, world);
    let cand = FaultPlan {
        events: Vec::new(),
        ..parent
    };
    let got = resumer.eval(&cand).clone();
    let want = FaultDriver::new(cand).run(&mut build());
    assert_eq!(got, want);
    assert!(got.applied.is_empty());
}
