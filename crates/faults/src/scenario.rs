//! Self-contained chaos scenarios: workload + backend + fault plan + the
//! expected verdict, in one replayable text file.
//!
//! The corpus under `tests/corpus/` stores shrunk violations in this format
//! so tier-1 `cargo test` replays them byte-deterministically. The format
//! is a superset of the [`FaultPlan`] text format: scenario directives
//! (`backend`, `seed`, `threads`, ...) are handled here, every other line
//! is a plan line:
//!
//! ```text
//! backend mcs
//! seed 17
//! threads 4
//! iters 120
//! cs-compute 200
//! write-pct 100
//! lrt-pressure off
//! expect deadlock
//! horizon 60000
//! when-holding 0 after 200 suspend 0
//! ```

use crate::fuzz::{ChaosCase, ChaosWorkload};
use crate::plan::{num, num_u32, FaultPlan};

/// One fully-specified, replayable chaos run.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosScenario {
    /// Harness backend label ("lcu", "lcu+flt", "ssb", "mcs", "mrsw", ...).
    pub backend: String,
    /// World seed (also the fuzz seed for generated cases).
    pub seed: u64,
    /// Workload shape.
    pub workload: ChaosWorkload,
    /// The fault plan.
    pub plan: FaultPlan,
    /// Expected verdict on replay: "liveness", "fairness", "exclusion",
    /// "deadlock" or "none".
    pub expect: String,
}

impl Default for ChaosScenario {
    fn default() -> Self {
        ChaosScenario {
            backend: "lcu".to_string(),
            seed: 1,
            workload: ChaosWorkload {
                threads: 4,
                iters: 120,
                cs_compute: 0,
                write_pct: 100,
                lrt_pressure: false,
            },
            plan: FaultPlan::new(),
            expect: "none".to_string(),
        }
    }
}

impl ChaosScenario {
    /// Wraps a fuzzer case (no verdict yet).
    pub fn from_case(case: &ChaosCase) -> Self {
        ChaosScenario {
            backend: case.backend.to_string(),
            seed: case.seed,
            workload: case.workload,
            plan: case.plan.clone(),
            expect: "none".to_string(),
        }
    }

    /// Parses the scenario text format. Unknown directives are rejected
    /// with the offending line number (plan lines included).
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut sc = ChaosScenario::default();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            sc = sc
                .parse_line(line)
                .map_err(|e| format!("scenario line {}: {e} (in {line:?})", i + 1))?;
        }
        Ok(sc)
    }

    fn parse_line(mut self, line: &str) -> Result<Self, String> {
        let toks = &mut line.split_whitespace();
        let head = toks.next().expect("caller skips empty lines");
        match head {
            "backend" | "expect" => {
                let val = toks
                    .next()
                    .ok_or_else(|| format!("missing value after {head:?}"))?
                    .to_string();
                if head == "backend" {
                    self.backend = val;
                } else {
                    self.expect = val;
                }
            }
            "seed" => self.seed = num(toks, "seed")?,
            "threads" => self.workload.threads = num_u32(toks, "thread count")?,
            "iters" => self.workload.iters = num_u32(toks, "iteration count")?,
            "cs-compute" => self.workload.cs_compute = num(toks, "cycle count")?,
            "write-pct" => self.workload.write_pct = num_u32(toks, "percentage")?,
            "lrt-pressure" => {
                self.workload.lrt_pressure = match toks.next() {
                    Some("on") => true,
                    Some("off") => false,
                    other => return Err(format!("expected \"on\" or \"off\", found {other:?}")),
                };
            }
            _ => return self.plan_line(line),
        }
        if let Some(extra) = toks.next() {
            return Err(format!("trailing token {extra:?}"));
        }
        Ok(self)
    }

    fn plan_line(mut self, line: &str) -> Result<Self, String> {
        self.plan = self.plan.parse_line(line)?;
        Ok(self)
    }

    /// Renders the scenario canonically; `parse(format())` round-trips.
    pub fn format(&self) -> String {
        let w = &self.workload;
        format!(
            "backend {}\nseed {}\nthreads {}\niters {}\ncs-compute {}\nwrite-pct {}\n\
             lrt-pressure {}\nexpect {}\n{}",
            self.backend,
            self.seed,
            w.threads,
            w.iters,
            w.cs_compute,
            w.write_pct,
            if w.lrt_pressure { "on" } else { "off" },
            self.expect,
            self.plan.format(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fuzz::{generate, FuzzConfig};
    use crate::plan::{Inject, Trigger};

    #[test]
    fn parse_full_scenario() {
        let text = "\
# wedged holder
backend mcs
seed 17
threads 2
iters 40
cs-compute 200
write-pct 100
lrt-pressure off
expect deadlock
horizon 60000
deadline 500000
when-holding 0 after 200 suspend 0
";
        let sc = ChaosScenario::parse(text).expect("valid scenario");
        assert_eq!(sc.backend, "mcs");
        assert_eq!(sc.seed, 17);
        assert_eq!(sc.workload.threads, 2);
        assert_eq!(sc.workload.cs_compute, 200);
        assert!(!sc.workload.lrt_pressure);
        assert_eq!(sc.expect, "deadlock");
        assert_eq!(sc.plan.horizon, 60_000);
        assert_eq!(sc.plan.events.len(), 1);
        assert_eq!(
            sc.plan.events[0].trigger,
            Trigger::WhenHolding {
                thread: 0,
                after: 200,
            }
        );
        assert_eq!(
            sc.plan.events[0].inject,
            Inject::Suspend {
                thread: 0,
                duration: None,
            }
        );
    }

    #[test]
    fn format_round_trips() {
        let mut sc = ChaosScenario::from_case(&generate(99, &FuzzConfig::default()));
        sc.expect = "liveness".to_string();
        let back = ChaosScenario::parse(&sc.format()).expect("formatted scenario parses");
        assert_eq!(back, sc);
    }

    #[test]
    fn parse_errors_name_the_line() {
        let err = ChaosScenario::parse("backend mcs\nfrobnicate 3\n").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        assert!(err.contains("unknown directive"), "{err}");
        let err = ChaosScenario::parse("lrt-pressure maybe\n").unwrap_err();
        assert!(err.contains("expected \"on\" or \"off\""), "{err}");
        let err = ChaosScenario::parse("threads 4294967298\n").unwrap_err();
        assert!(
            err.contains("thread count 4294967298 out of range"),
            "{err}"
        );
    }
}
