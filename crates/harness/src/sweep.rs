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
//!   thread's observability options, and drains its state into an
//!   `obs::WorkerCapture` after every job;
//! * **canonical-order merge** — results come back indexed, and the caller
//!   merges the captures on the main thread in job order, which reproduces
//!   the sequential "last observe wins / run counts accumulate" semantics
//!   exactly. Callers with an inclusion rule (chaossim's simulated-cycle
//!   budget) decide *after* the sweep which jobs to merge, in job order,
//!   so the budget cutoff is independent of worker count;
//! * **early stop** — every worker asks the caller's stop predicate before
//!   it claims the next index, so a sweep whose inclusion rule is already
//!   settled stops spending CPU on jobs the caller would drop. The claimed
//!   jobs always form a prefix of the index range.
//!
//! The two observability modes whose capture spans runs on one thread —
//! `--trace` (the first run's export) and `--self-profile` (the span
//! tree) — force the sweep sequential, with a stderr note.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

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

/// The worker count a sweep of `n` jobs will actually use: the resolved
/// `--jobs` value, clamped to the job count, forced to `1` (with a stderr
/// note) when an observability mode needs every run on the main thread.
/// The `all` bin, whose sequential path interleaves runs with emission,
/// branches on this to decide whether to sweep at all.
pub(crate) fn effective_jobs(jobs: usize, n: usize) -> usize {
    let jobs = resolve_jobs(jobs).min(n.max(1));
    if jobs > 1 && obs::wants_sequential() {
        eprintln!("sweep: --trace/--self-profile capture across runs; running sequentially");
        return 1;
    }
    jobs
}

/// Runs jobs `0..n` with up to `jobs` worker threads and returns the
/// outputs of the jobs it claimed, indexed by job. Before claiming each
/// index a worker calls `stop`; once it returns `true` that worker claims
/// nothing more. Claims hand out indices in order, so the result is always
/// a prefix `0..m` of the jobs, and `m < n` only if some call to `stop`
/// returned `true`. Pass `|| false` to run every job.
///
/// With `jobs <= 1` (or when an observability mode requires it) the jobs
/// run inline on the calling thread, `stop` is asked before each one, and
/// their observability flows straight into the main state — byte-for-byte
/// the pre-`--jobs` behavior; the returned captures are then empty and
/// [`include`] is a no-op merge.
pub(crate) fn run_jobs<T, S, F>(jobs: usize, n: usize, stop: S, f: F) -> Vec<JobOutput<T>>
where
    T: Send,
    S: Fn() -> bool + Sync,
    F: Fn(usize) -> T + Sync,
{
    let jobs = effective_jobs(jobs, n);
    if jobs <= 1 {
        return (0..n)
            .take_while(|_| !stop())
            .map(|i| JobOutput {
                result: f(i),
                capture: obs::WorkerCapture::default(),
            })
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
                    let result = f(i);
                    // Drain per job, not per worker: the caller may exclude
                    // individual jobs, so each capture must hold exactly one
                    // job's observability.
                    let capture = obs::drain_worker();
                    *slots[i].lock().expect("sweep slot poisoned") =
                        Some(JobOutput { result, capture });
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
    use super::*;

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
