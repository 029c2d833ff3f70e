//! The work-stealing parallel sweep runner behind the `--jobs` flag.
//!
//! Sweeps (`chaossim` seeds, `faultsim` matrix cells, the `all` bin's
//! figures) are embarrassingly parallel: every job builds its own
//! [`locksim_machine::World`] from a fixed seed, so a job's simulated
//! result is a pure function of its inputs. The runner exploits that while
//! keeping every output byte-identical to a sequential run:
//!
//! * **work stealing** — workers claim the next unclaimed job index from a
//!   shared atomic counter, so long jobs don't serialize behind short ones
//!   and every host core stays busy regardless of job-length skew;
//! * **per-run isolation** — each job's world owns its RNG, trace ring,
//!   lockstat and metrics registry; the harness-side observability state
//!   ([`crate::obs`]) is thread-local, each worker starts from the main
//!   thread's observability options, and every job, on a worker or
//!   inline, files its observability into its own `obs::WorkerCapture`:
//!   run captures, verdicts, lockstat captures, the trace ring it may
//!   export and, on a worker, its profiler span tree;
//! * **canonical-order merge** — results come back indexed, and the caller
//!   merges the captures on the main thread in job order, which reproduces
//!   the sequential "last observe wins / run counts accumulate" semantics
//!   exactly, writes the first run of the lowest job that made one as the
//!   `--trace` export, and folds span trees as one thread would have built
//!   them. Callers with an inclusion rule (chaossim's simulated-cycle
//!   budget) decide *after* the sweep which jobs to merge, in job order,
//!   so the budget cutoff is independent of worker count;
//! * **early stop** — every worker asks the caller's stop predicate before
//!   it claims the next index, so a sweep whose inclusion rule is already
//!   settled stops spending CPU on jobs the caller would drop. The claimed
//!   jobs always form a prefix of the index range.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::obs;

/// One job's result plus the observability its run produced. Captures are
/// merged by [`include`] in canonical order; jobs a caller excludes
/// (chaos budget cutoff) are simply dropped, captures and all.
pub(crate) struct JobOutput<T> {
    pub result: T,
    capture: obs::WorkerCapture,
}

/// Merges a job's observability into the main thread's state and returns
/// its result. Call in canonical job order, from the main thread only.
pub(crate) fn include<T>(out: JobOutput<T>) -> T {
    obs::merge_worker(out.capture);
    out.result
}

/// Resolves the `--jobs` flag value: `0` means one worker per host core.
pub fn resolve_jobs(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        requested
    }
}

/// Parses a `--jobs` flag value (`0` = auto-detect host cores).
///
/// # Errors
///
/// Returns a usage message when the value is not a number.
pub fn parse_jobs(v: &str) -> Result<usize, String> {
    v.parse::<usize>()
        .map_err(|_| format!("--jobs: invalid count {v:?} (0 = one per host core)"))
}

/// Runs jobs `0..n` with up to `jobs` worker threads and returns the
/// outputs of the jobs it claimed, indexed by job. Before claiming each
/// index a worker calls `stop`; once it returns `true` that worker claims
/// nothing more. Claims hand out indices in order, so the result is always
/// a prefix `0..m` of the jobs, and `m < n` only if some call to `stop`
/// returned `true`. Pass `|| false` to run every job.
///
/// With one worker (`jobs <= 1`, or a single job) the jobs run inline on
/// the calling thread and `stop` is asked before each one. Either way each
/// job's observability comes back in its own capture, for [`include`] to
/// merge; inline jobs record their profiler spans straight into the
/// calling thread's tree, under whatever spans it has open.
pub(crate) fn run_jobs<T, S, F>(jobs: usize, n: usize, stop: S, f: F) -> Vec<JobOutput<T>>
where
    T: Send,
    S: Fn() -> bool + Sync,
    F: Fn(usize) -> T + Sync,
{
    let traced = Arc::new(AtomicUsize::new(usize::MAX));
    let run = |i: usize, worker: bool| {
        let (result, capture) = obs::job(i, &traced, worker, || f(i));
        JobOutput { result, capture }
    };
    let jobs = resolve_jobs(jobs).min(n.max(1));
    if jobs <= 1 {
        return (0..n)
            .take_while(|_| !stop())
            .map(|i| run(i, false))
            .collect();
    }
    // SeqCst: `stop` may read atomics that `f` updates, and one total order
    // over those and the claim counter means every job whose effect `stop`
    // saw was claimed before any claim that follows it.
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<JobOutput<T>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let opts = obs::opts();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| {
                obs::apply_opts(&opts);
                while !stop() {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    if i >= n {
                        break;
                    }
                    // One capture per job, not per worker: the caller may
                    // exclude individual jobs.
                    *slots[i].lock().expect("sweep slot poisoned") = Some(run(i, true));
                }
            });
        }
    });
    let claimed = next.into_inner().min(n);
    slots
        .into_iter()
        .take(claimed)
        .map(|s| {
            s.into_inner()
                .expect("sweep slot poisoned")
                .expect("every claimed job finished")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicBool;
    use std::time::{Duration, Instant};

    use locksim_machine::{MachineConfig, World};
    use locksim_trace::prof;
    use locksim_workloads::{CsThread, IterPool};

    use super::*;
    use crate::BackendKind;

    #[test]
    fn runs_every_job_in_index_order() {
        for jobs in [1, 4] {
            let outs = run_jobs(jobs, 17, || false, |i| i * i);
            let results: Vec<usize> = outs.into_iter().map(include).collect();
            assert_eq!(results, (0..17).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    /// Sweeps `n` synthetic jobs whose stop predicate trips once `limit`
    /// of them have run, and returns the job indices in output order.
    fn stop_after(jobs: usize, n: usize, limit: usize) -> Vec<usize> {
        let done = AtomicUsize::new(0);
        run_jobs(
            jobs,
            n,
            || done.load(Ordering::SeqCst) >= limit,
            |i| {
                done.fetch_add(1, Ordering::SeqCst);
                i
            },
        )
        .into_iter()
        .map(include)
        .collect()
    }

    #[test]
    fn inline_sweep_stops_exactly_where_the_predicate_trips() {
        assert_eq!(stop_after(1, 200, 7), (0..7).collect::<Vec<_>>());
        assert_eq!(stop_after(1, 5, 7), (0..5).collect::<Vec<_>>());
        assert!(stop_after(1, 200, 0).is_empty());
    }

    #[test]
    fn parallel_sweep_returns_an_index_ordered_prefix() {
        let (jobs, limit) = (2, 50);
        for _ in 0..50 {
            let ran = stop_after(jobs, 200, limit);
            assert_eq!(ran, (0..ran.len()).collect::<Vec<_>>());
            // The last check that let a claim through saw at most
            // `limit - 1` jobs run; every claim had passed its check by
            // then, and at most one per worker had not yet run.
            assert!((limit..limit + jobs).contains(&ran.len()), "{}", ran.len());
        }
    }

    /// With `--trace` and `--self-profile` applied, a two-worker sweep runs
    /// its jobs off the calling thread and folds their spans in; an inline
    /// sweep hands back each job's observability in that job's capture.
    #[test]
    fn traced_profiled_sweeps_run_in_parallel_and_capture_per_job() {
        obs::apply_opts(&obs::CliOpts {
            trace_path: Some("unwritten.json".into()),
            self_profile: Some("unwritten.txt".into()),
            ..obs::CliOpts::default()
        });
        let caller = std::thread::current().id();
        let outs = run_jobs(
            2,
            4,
            || false,
            |_| {
                let _s = prof::span("job");
                std::thread::current().id()
            },
        );
        assert!(outs.iter().all(|o| o.result != caller));
        outs.into_iter().for_each(|o| {
            include(o);
        });
        assert_eq!(prof::take_report().span("job").map(|s| s.calls), Some(4));

        let outs = run_jobs(
            1,
            3,
            || false,
            |i| {
                obs::record_verdicts(&format!("job{i}"), Vec::new());
            },
        );
        for (i, out) in outs.iter().enumerate() {
            assert_eq!(out.capture.verdict_labels(), [format!("job{i}")]);
        }
        prof::disable();
    }

    /// A two-thread world on the ideal lock, armed like a harness run.
    fn traced_world(seed: u64) -> World {
        let mut w = World::new(MachineConfig::model_a(2), BackendKind::Ideal.build(), seed);
        obs::arm(&mut w);
        let lock = w.mach().alloc().alloc_line();
        let data = w.mach().alloc().alloc_line();
        let pool = IterPool::new(4);
        for _ in 0..2 {
            w.spawn(Box::new(CsThread::new(lock, data, pool.clone(), 100)));
        }
        w.run_to_completion();
        w
    }

    /// Job 0 makes no run and job 2 makes its runs before job 1 does; the
    /// export is still job 1's first run, as in a one-by-one sweep.
    #[test]
    fn a_sweep_exports_the_first_run_of_the_lowest_job_that_made_one() {
        let path = std::env::temp_dir().join(format!(
            "locksim_sweep_first_trace_{}.json",
            std::process::id()
        ));
        obs::apply_opts(&obs::CliOpts {
            trace_path: Some(path.clone()),
            ..obs::CliOpts::default()
        });
        let job2_done = AtomicBool::new(false);
        // Bounded, so that a sweep running its jobs inline fails the
        // ordering check below instead of hanging.
        let deadline = Instant::now() + Duration::from_secs(10);
        let outs = run_jobs(
            2,
            3,
            || false,
            |i| {
                while i == 1 && !job2_done.load(Ordering::SeqCst) && Instant::now() < deadline {
                    std::thread::yield_now();
                }
                let after_job2 = job2_done.load(Ordering::SeqCst);
                if i > 0 {
                    for seed in [i as u64, 10 + i as u64] {
                        obs::observe("run", &traced_world(seed));
                    }
                }
                job2_done.store(i == 2, Ordering::SeqCst);
                after_job2
            },
        );
        let results: Vec<bool> = outs.into_iter().map(include).collect();
        assert!(results[1], "job 1 did not run after job 2");
        let mut want = Vec::new();
        traced_world(1)
            .mach_ref()
            .tracer()
            .export_chrome(&mut want)
            .expect("render trace");
        let got = std::fs::read(&path).expect("the sweep wrote a trace");
        std::fs::remove_file(&path).expect("remove trace");
        assert!(got == want, "the export is not job 1's first run");
    }

    #[test]
    fn zero_jobs_resolves_to_host_cores() {
        assert!(resolve_jobs(0) >= 1);
        assert_eq!(resolve_jobs(3), 3);
    }

    #[test]
    fn parse_jobs_accepts_numbers_only() {
        assert_eq!(parse_jobs("4"), Ok(4));
        assert_eq!(parse_jobs("0"), Ok(0));
        assert!(parse_jobs("many").is_err());
    }

    #[test]
    fn empty_sweep_is_fine() {
        let outs = run_jobs(8, 0, || false, |_| 0u64);
        assert!(outs.is_empty());
    }
}
