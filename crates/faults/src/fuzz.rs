//! Seeded fault-plan fuzzer: random but *valid* chaos cases.
//!
//! [`generate`] maps `(seed, config)` to a [`ChaosCase`] — a workload shape
//! plus a [`FaultPlan`] — deterministically. Two RNG disciplines make the
//! corpus durable:
//!
//! * **Split streams.** The master stream is forked once per concern
//!   ([`RngStream::split`]): plan generation draws from one child, workload
//!   perturbation from another. Adding a draw to the plan generator can
//!   never shift the workload a seed produces (and vice versa), so corpus
//!   seed lines keep reproducing the same case across generator tweaks that
//!   only extend one side.
//! * **Generation invariants.** Every generated plan satisfies
//!   [`FaultPlan::validate`] by construction: thread/core ids are drawn
//!   below the case's own counts, `wire-delay` periods are ≥ 1, a `resume`
//!   is only emitted for a thread with a preceding *indefinite* suspend
//!   (and, for exact-cycle pairs, never earlier than it), and every exact
//!   trigger fires before the deadline, and workloads are compatible with
//!   their backend (writer-only locks never see read-mode acquires). The
//!   fuzzer explores schedules, not the parser's error paths — those have
//!   their own tests.

use crate::plan::{FaultPlan, Inject, Trigger};
use locksim_engine::RngStream;

/// Stream id under which all chaos randomness lives, so chaos draws are
/// decorrelated from the simulation's own per-thread streams even when the
/// same master seed is reused as a world seed.
pub const CHAOS_STREAM: u64 = 0xC4A05;

/// Tag of the plan-generation child stream.
const PLAN_SPLIT: u64 = 0;
/// Tag of the workload-perturbation child stream.
const WORKLOAD_SPLIT: u64 = 1;

/// Knobs bounding what the fuzzer may generate.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzConfig {
    /// Backend labels to draw from: by default the harness fault suite, in
    /// table order (a harness test pins the two together).
    pub backends: Vec<&'static str>,
    /// Inclusive thread-count range.
    pub threads: (u32, u32),
    /// Machine core count the plans must stay within.
    pub n_cores: u32,
    /// Inclusive per-run total-iteration range (split across threads).
    pub iters: (u32, u32),
    /// Maximum number of fault events per plan (at least 1 is generated).
    pub max_events: usize,
    /// Hard run deadline for generated plans, in cycles.
    pub deadline: u64,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            backends: vec!["lcu", "lcu+flt", "ssb", "mcs", "mrsw", "bravo", "fissile"],
            threads: (2, 6),
            n_cores: 4,
            iters: (60, 240),
            max_events: 6,
            deadline: 2_000_000,
        }
    }
}

/// The workload shape a chaos case runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosWorkload {
    /// Thread count.
    pub threads: u32,
    /// Total iterations shared across threads.
    pub iters: u32,
    /// Extra compute cycles inside each critical section.
    pub cs_compute: u64,
    /// Percentage of acquisitions in write mode.
    pub write_pct: u32,
    /// Whether to shrink the directory lock-reservation table to 2 entries
    /// (forces LRT eviction/retry paths under multi-lock pressure).
    pub lrt_pressure: bool,
}

/// One fully-specified chaos run: backend, workload, seed and fault plan.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosCase {
    /// The fuzz seed that produced (and reproduces) this case.
    pub seed: u64,
    /// Harness backend label.
    pub backend: &'static str,
    /// Workload shape.
    pub workload: ChaosWorkload,
    /// The generated fault plan.
    pub plan: FaultPlan,
}

/// Deterministically generates the chaos case for `seed` under `cfg`.
pub fn generate(seed: u64, cfg: &FuzzConfig) -> ChaosCase {
    let mut root = RngStream::new(seed, CHAOS_STREAM);
    let mut plan_rng = root.split(PLAN_SPLIT);
    let mut wl_rng = root.split(WORKLOAD_SPLIT);

    let backend = cfg.backends[wl_rng.below(cfg.backends.len() as u64) as usize];
    let mut workload = gen_workload(&mut wl_rng, cfg);
    if backend == "mcs" {
        // MCS is a writer-only queue lock; read-mode acquires assert. Clamp
        // rather than redraw so the draw count per seed stays fixed.
        workload.write_pct = 100;
    }
    let plan = gen_plan(&mut plan_rng, cfg, workload.threads);

    debug_assert_eq!(plan.validate(workload.threads, cfg.n_cores), Ok(()));
    ChaosCase {
        seed,
        backend,
        workload,
        plan,
    }
}

fn gen_workload(rng: &mut RngStream, cfg: &FuzzConfig) -> ChaosWorkload {
    let (t_lo, t_hi) = cfg.threads;
    let (i_lo, i_hi) = cfg.iters;
    ChaosWorkload {
        threads: rng.range(t_lo as u64, t_hi as u64 + 1) as u32,
        iters: rng.range(i_lo as u64, i_hi as u64 + 1) as u32,
        cs_compute: *pick(rng, &[0, 50, 200, 800]),
        write_pct: *pick(rng, &[0, 10, 50, 100]),
        lrt_pressure: rng.chance(0.25),
    }
}

fn gen_plan(rng: &mut RngStream, cfg: &FuzzConfig, n_threads: u32) -> FaultPlan {
    let deadline = cfg.deadline;
    let mut plan = FaultPlan::new()
        .horizon(rng.range(30_000, 120_001))
        .fairness_k(rng.range(2, 17))
        .poll(rng.range(200, 1_001))
        .deadline(deadline);

    let n_events = rng.range(1, cfg.max_events as u64 + 1) as usize;
    // Threads with a preceding indefinite suspend and the exact cycle it
    // fires at (None for conditional triggers): the only legal resume
    // targets, per the validation rules.
    let mut resumable: Vec<(u32, Option<u64>)> = Vec::new();
    // Exact triggers stay in the first three quarters of the run so the
    // injection has room to matter before the deadline cuts it off.
    let trigger_cap = deadline * 3 / 4;
    let mut wire_installed = false;

    for _ in 0..n_events {
        // Weighted kind choice; resume/wire-clear only when armed.
        let kind = loop {
            match rng.below(10) {
                0..=2 => break "suspend",
                3 => {
                    if !resumable.is_empty() {
                        break "resume";
                    }
                }
                4..=5 => break "migrate",
                6 => break "flt-evict",
                7..=8 => break "wire-delay",
                _ => {
                    if wire_installed {
                        break "wire-clear";
                    }
                }
            }
        };
        let thread = rng.below(n_threads as u64) as u32;
        let trigger = |rng: &mut RngStream, thread: u32| match rng.below(4) {
            0 => Trigger::WhenWaiting {
                thread,
                after: rng.below(deadline / 4),
            },
            1 => Trigger::WhenHolding {
                thread,
                after: rng.below(deadline / 4),
            },
            _ => Trigger::AtCycle(rng.below(trigger_cap)),
        };
        let ev = match kind {
            "suspend" => {
                let trig = trigger(rng, thread);
                let duration = if rng.chance(0.3) {
                    // Indefinite: arms a later resume (or a wedge, if none
                    // follows and the queue depends on this thread).
                    resumable.push((
                        thread,
                        match trig {
                            Trigger::AtCycle(c) => Some(c),
                            _ => None,
                        },
                    ));
                    None
                } else {
                    Some(rng.range(10_000, 200_001))
                };
                (trig, Inject::Suspend { thread, duration })
            }
            "resume" => {
                let (t, susp_at) = resumable[rng.below(resumable.len() as u64) as usize];
                // Never earlier than an exact-cycle suspend partner.
                let lo = susp_at.unwrap_or(0);
                let at = lo + rng.below(trigger_cap.saturating_sub(lo).max(1));
                (Trigger::AtCycle(at), Inject::Resume { thread: t })
            }
            "migrate" => (
                trigger(rng, thread),
                Inject::Migrate {
                    thread,
                    to_core: rng.below(cfg.n_cores as u64) as u32,
                },
            ),
            "flt-evict" => (
                Trigger::AtCycle(rng.below(trigger_cap)),
                Inject::FltEvict {
                    core: rng.below(cfg.n_cores as u64) as u32,
                },
            ),
            "wire-delay" => {
                wire_installed = true;
                (
                    Trigger::AtCycle(rng.below(trigger_cap / 2)),
                    Inject::WireDelay {
                        period: rng.range(2, 9),
                        extra: rng.range(100, 1_001),
                    },
                )
            }
            _ => (Trigger::AtCycle(rng.below(trigger_cap)), Inject::WireClear),
        };
        plan = plan.event(ev.0, ev.1);
    }
    plan
}

fn pick<'a, T>(rng: &mut RngStream, choices: &'a [T]) -> &'a T {
    &choices[rng.below(choices.len() as u64) as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = FuzzConfig::default();
        assert_eq!(generate(42, &cfg), generate(42, &cfg));
        assert_ne!(generate(42, &cfg), generate(43, &cfg));
    }

    #[test]
    fn generated_plans_always_validate() {
        let cfg = FuzzConfig::default();
        for seed in 0..5000 {
            let case = generate(seed, &cfg);
            assert!(
                (cfg.threads.0..=cfg.threads.1).contains(&case.workload.threads),
                "seed {seed}"
            );
            assert!(!case.plan.events.is_empty(), "seed {seed}");
            assert!(case.plan.events.len() <= cfg.max_events, "seed {seed}");
            case.plan
                .validate(case.workload.threads, cfg.n_cores)
                .unwrap_or_else(|e| panic!("seed {seed}: generated invalid plan: {e}"));
            if case.backend == "mcs" {
                assert_eq!(case.workload.write_pct, 100, "seed {seed}: mcs reads");
            }
        }
    }

    #[test]
    fn plan_stream_is_isolated_from_workload_stream() {
        // A config change that only alters workload bounds must leave the
        // generated *plan* untouched for the same seed (split streams).
        let a = FuzzConfig::default();
        let b = FuzzConfig {
            iters: (500, 900),
            ..FuzzConfig::default()
        };
        for seed in 0..64 {
            let ca = generate(seed, &a);
            let cb = generate(seed, &b);
            assert_eq!(ca.plan, cb.plan, "seed {seed}: plan shifted");
            // Thread counts share bounds, so plans target valid ids in both.
            assert_eq!(ca.workload.threads, cb.workload.threads);
        }
    }

    #[test]
    fn fuzzer_reaches_every_event_kind() {
        let cfg = FuzzConfig::default();
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..512 {
            for ev in &generate(seed, &cfg).plan.events {
                seen.insert(ev.inject.label());
            }
        }
        for kind in [
            "suspend",
            "resume",
            "migrate",
            "flt_evict",
            "wire_delay",
            "wire_clear",
        ] {
            assert!(seen.contains(kind), "fuzzer never generated {kind}");
        }
    }
}
