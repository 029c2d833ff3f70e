//! The fault scenario model: what to inject, when, and which guarantees to
//! check afterwards.
//!
//! A [`FaultPlan`] is built programmatically (builder methods) or parsed
//! from a small line-oriented text format (see [`FaultPlan::parse`]) so
//! scenarios can live in files and CI configs:
//!
//! ```text
//! # one directive per line; '#' starts a comment
//! horizon 150000
//! fairness-k 4
//! poll 500
//! deadline 600000
//! at 20000 suspend 1 for 80000
//! at 30000 migrate 2 to 3
//! when-waiting 1 after 5000 suspend 1 for 50000
//! at 10000 flt-evict 0
//! at 0 wire-delay every 3 extra 400
//! ```

use std::fmt;

/// A structural defect in a [`FaultPlan`], caught by [`FaultPlan::validate`]
/// at load time rather than surfacing as a silently-declined injection (or a
/// panic) mid-run. Each variant names the offending event index (0-based,
/// plan order) so scenario files can be fixed by line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanError {
    /// An event references a thread id `>= n_threads`.
    ThreadOutOfRange {
        /// Index of the offending event in plan order.
        event: usize,
        /// The out-of-range thread id.
        thread: u32,
        /// The workload's thread count.
        n_threads: u32,
    },
    /// An event references a core id `>= n_cores`.
    CoreOutOfRange {
        /// Index of the offending event in plan order.
        event: usize,
        /// The out-of-range core id.
        core: u32,
        /// The machine's core count.
        n_cores: u32,
    },
    /// A `resume` has no preceding `suspend` of the same thread (or, with
    /// exact-cycle triggers, would fire before it), so it could never apply.
    ResumeBeforeSuspend {
        /// Index of the offending resume event in plan order.
        event: usize,
        /// The thread the resume targets.
        thread: u32,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            PlanError::ThreadOutOfRange {
                event,
                thread,
                n_threads,
            } => write!(
                f,
                "event {event}: thread {thread} out of range (workload has {n_threads} threads)"
            ),
            PlanError::CoreOutOfRange {
                event,
                core,
                n_cores,
            } => write!(
                f,
                "event {event}: core {core} out of range (machine has {n_cores} cores)"
            ),
            PlanError::ResumeBeforeSuspend { event, thread } => write!(
                f,
                "event {event}: resume of thread {thread} precedes any suspend of it"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

/// When an injection fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// At an exact simulated cycle.
    AtCycle(u64),
    /// At the first driver poll at or after `after` cycles where `thread`
    /// has an acquire outstanding (protocol-state trigger: mid-queue).
    WhenWaiting {
        /// The observed thread.
        thread: u32,
        /// Earliest cycle the condition is polled.
        after: u64,
    },
    /// At the first driver poll at or after `after` cycles where `thread`
    /// holds at least one lock (protocol-state trigger: mid-critical-section).
    WhenHolding {
        /// The observed thread.
        thread: u32,
        /// Earliest cycle the condition is polled.
        after: u64,
    },
}

impl Trigger {
    /// The earliest cycle the trigger can fire at.
    pub(crate) fn cycle(&self) -> u64 {
        match *self {
            Trigger::AtCycle(at) => at,
            Trigger::WhenWaiting { after, .. } | Trigger::WhenHolding { after, .. } => after,
        }
    }
}

/// What to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inject {
    /// Suspend a thread (off-core, not runnable). `duration` of `Some(d)`
    /// auto-resumes it `d` cycles later; `None` waits for an explicit
    /// [`Inject::Resume`].
    Suspend {
        /// The suspended thread.
        thread: u32,
        /// Auto-resume delay in cycles, if any.
        duration: Option<u64>,
    },
    /// Resume a suspended thread.
    Resume {
        /// The resumed thread.
        thread: u32,
    },
    /// Forcibly migrate a thread to a core (evicting any occupant).
    Migrate {
        /// The migrated thread.
        thread: u32,
        /// Destination core.
        to_core: u32,
    },
    /// Force-evict a parked free-lock-table entry on a core (LCU only;
    /// backends without an FLT report the fault unapplied).
    FltEvict {
        /// The pressured core.
        core: u32,
    },
    /// Install a deterministic wire-delay fault: every `period`-th network
    /// message is delayed `extra` cycles.
    WireDelay {
        /// Delay every `period`-th message.
        period: u64,
        /// Extra delay in cycles.
        extra: u64,
    },
    /// Remove the wire-delay fault.
    WireClear,
}

impl Inject {
    /// Short label for traces and reports.
    pub fn label(&self) -> &'static str {
        match self {
            Inject::Suspend { .. } => locksim_trace::oracle::SUSPEND,
            Inject::Resume { .. } => locksim_trace::oracle::RESUME,
            Inject::Migrate { .. } => "migrate",
            Inject::FltEvict { .. } => "flt_evict",
            Inject::WireDelay { .. } => "wire_delay",
            Inject::WireClear => "wire_clear",
        }
    }
}

/// One planned injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// When it fires.
    pub trigger: Trigger,
    /// What it does.
    pub inject: Inject,
}

/// A complete fault scenario plus the oracle thresholds to judge it by.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Planned injections, applied in plan order when due.
    pub events: Vec<FaultEvent>,
    /// Liveness horizon: a requester left waiting more than this many
    /// non-suspended cycles is a liveness violation.
    pub horizon: u64,
    /// Fairness bound: a waiter overtaken by more than `k` later requesters
    /// is a fairness violation.
    pub fairness_k: u64,
    /// Driver polling interval for conditional triggers (and the stepping
    /// granularity for exact-cycle ones).
    pub poll: u64,
    /// Hard cap on the driven run length, in cycles.
    pub deadline: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            events: Vec::new(),
            horizon: 150_000,
            fairness_k: 8,
            poll: 500,
            deadline: 1_000_000,
        }
    }
}

impl FaultPlan {
    /// An empty plan with default thresholds.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the liveness horizon.
    pub fn horizon(mut self, cycles: u64) -> Self {
        self.horizon = cycles;
        self
    }

    /// Sets the fairness overtake bound.
    pub fn fairness_k(mut self, k: u64) -> Self {
        self.fairness_k = k;
        self
    }

    /// Sets the polling/stepping interval.
    pub fn poll(mut self, cycles: u64) -> Self {
        self.poll = cycles.max(1);
        self
    }

    /// Sets the hard run deadline.
    pub fn deadline(mut self, cycles: u64) -> Self {
        self.deadline = cycles;
        self
    }

    /// Adds an injection with an explicit trigger.
    pub fn event(mut self, trigger: Trigger, inject: Inject) -> Self {
        self.events.push(FaultEvent { trigger, inject });
        self
    }

    /// Suspends `thread` at `cycle` for `duration` cycles.
    pub fn suspend_at(self, cycle: u64, thread: u32, duration: u64) -> Self {
        self.event(
            Trigger::AtCycle(cycle),
            Inject::Suspend {
                thread,
                duration: Some(duration),
            },
        )
    }

    /// Suspends `thread` for `duration` cycles once it is waiting on a lock
    /// (polled from `after` cycles on).
    pub fn suspend_when_waiting(self, thread: u32, after: u64, duration: u64) -> Self {
        self.event(
            Trigger::WhenWaiting { thread, after },
            Inject::Suspend {
                thread,
                duration: Some(duration),
            },
        )
    }

    /// Suspends `thread` for `duration` cycles once it holds a lock (polled
    /// from `after` cycles on).
    pub fn suspend_when_holding(self, thread: u32, after: u64, duration: u64) -> Self {
        self.event(
            Trigger::WhenHolding { thread, after },
            Inject::Suspend {
                thread,
                duration: Some(duration),
            },
        )
    }

    /// Migrates `thread` to `to_core` at `cycle`.
    pub fn migrate_at(self, cycle: u64, thread: u32, to_core: u32) -> Self {
        self.event(Trigger::AtCycle(cycle), Inject::Migrate { thread, to_core })
    }

    /// Migrates `thread` to `to_core` once it is waiting on a lock.
    pub fn migrate_when_waiting(self, thread: u32, after: u64, to_core: u32) -> Self {
        self.event(
            Trigger::WhenWaiting { thread, after },
            Inject::Migrate { thread, to_core },
        )
    }

    /// Force-evicts an FLT entry on `core` at `cycle`.
    pub fn flt_evict_at(self, cycle: u64, core: u32) -> Self {
        self.event(Trigger::AtCycle(cycle), Inject::FltEvict { core })
    }

    /// Installs a wire-delay fault at `cycle`.
    pub fn wire_delay_at(self, cycle: u64, period: u64, extra: u64) -> Self {
        self.event(Trigger::AtCycle(cycle), Inject::WireDelay { period, extra })
    }

    /// Checks the plan against a concrete machine shape: every referenced
    /// thread id must be `< n_threads`, every core id `< n_cores`, and every
    /// `resume` must be preceded (in plan order — the order injections are
    /// applied) by a `suspend` of the same thread; when the resume and
    /// every preceding suspend of its thread carry exact cycle triggers,
    /// the resume must not fire strictly before the earliest of them. The
    /// first defect found is returned.
    pub fn validate(&self, n_threads: u32, n_cores: u32) -> Result<(), PlanError> {
        // Earliest-firing preceding suspend per thread: Some(cycle) for an
        // exact trigger, None once any suspend is conditional (its cycle is
        // unknowable statically, so it may fire first).
        let mut suspended_at: std::collections::BTreeMap<u32, Option<u64>> =
            std::collections::BTreeMap::new();
        for (i, ev) in self.events.iter().enumerate() {
            let thread_ok = |thread: u32| {
                if thread >= n_threads {
                    Err(PlanError::ThreadOutOfRange {
                        event: i,
                        thread,
                        n_threads,
                    })
                } else {
                    Ok(())
                }
            };
            let core_ok = |core: u32| {
                if core >= n_cores {
                    Err(PlanError::CoreOutOfRange {
                        event: i,
                        core,
                        n_cores,
                    })
                } else {
                    Ok(())
                }
            };
            match ev.trigger {
                Trigger::AtCycle(_) => {}
                Trigger::WhenWaiting { thread, .. } | Trigger::WhenHolding { thread, .. } => {
                    thread_ok(thread)?;
                }
            }
            match ev.inject {
                Inject::Suspend { thread, .. } => {
                    thread_ok(thread)?;
                    let at = match ev.trigger {
                        Trigger::AtCycle(c) => Some(c),
                        _ => None,
                    };
                    suspended_at
                        .entry(thread)
                        .and_modify(|prev| *prev = prev.zip(at).map(|(p, c)| p.min(c)))
                        .or_insert(at);
                }
                Inject::Resume { thread } => {
                    thread_ok(thread)?;
                    let err = PlanError::ResumeBeforeSuspend { event: i, thread };
                    match suspended_at.get(&thread) {
                        None => return Err(err),
                        Some(&Some(susp_cycle)) => {
                            if let Trigger::AtCycle(c) = ev.trigger {
                                if c < susp_cycle {
                                    return Err(err);
                                }
                            }
                        }
                        Some(&None) => {}
                    }
                }
                Inject::Migrate { thread, to_core } => {
                    thread_ok(thread)?;
                    core_ok(to_core)?;
                }
                Inject::FltEvict { core } => core_ok(core)?,
                Inject::WireDelay { .. } | Inject::WireClear => {}
            }
        }
        Ok(())
    }

    /// Renders the plan in the line-oriented scenario format, canonically:
    /// the four threshold directives first, then events in plan order. The
    /// output round-trips — `FaultPlan::parse(plan.format())` reproduces the
    /// plan exactly (for any plan with `poll >= 1`, which the builder and
    /// parser both guarantee).
    pub fn format(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "horizon {}", self.horizon);
        let _ = writeln!(out, "fairness-k {}", self.fairness_k);
        let _ = writeln!(out, "poll {}", self.poll);
        let _ = writeln!(out, "deadline {}", self.deadline);
        for ev in &self.events {
            match ev.trigger {
                Trigger::AtCycle(c) => {
                    let _ = write!(out, "at {c}");
                }
                Trigger::WhenWaiting { thread, after } => {
                    let _ = write!(out, "when-waiting {thread} after {after}");
                }
                Trigger::WhenHolding { thread, after } => {
                    let _ = write!(out, "when-holding {thread} after {after}");
                }
            }
            match ev.inject {
                Inject::Suspend {
                    thread,
                    duration: Some(d),
                } => {
                    let _ = writeln!(out, " suspend {thread} for {d}");
                }
                Inject::Suspend {
                    thread,
                    duration: None,
                } => {
                    let _ = writeln!(out, " suspend {thread}");
                }
                Inject::Resume { thread } => {
                    let _ = writeln!(out, " resume {thread}");
                }
                Inject::Migrate { thread, to_core } => {
                    let _ = writeln!(out, " migrate {thread} to {to_core}");
                }
                Inject::FltEvict { core } => {
                    let _ = writeln!(out, " flt-evict {core}");
                }
                Inject::WireDelay { period, extra } => {
                    let _ = writeln!(out, " wire-delay every {period} extra {extra}");
                }
                Inject::WireClear => {
                    let _ = writeln!(out, " wire-clear");
                }
            }
        }
        out
    }

    /// Parses the line-oriented scenario format (see the module docs).
    /// Unknown directives, missing fields and malformed numbers are
    /// rejected with the offending line number.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            plan = plan
                .parse_line(line)
                .map_err(|e| format!("scenario line {}: {e} (in {line:?})", i + 1))?;
        }
        Ok(plan)
    }

    pub(crate) fn parse_line(mut self, line: &str) -> Result<Self, String> {
        let toks = &mut line.split_whitespace();
        let head = toks.next().expect("caller skips empty lines");
        match head {
            "horizon" => self.horizon = num(toks, "cycle count")?,
            "fairness-k" => self.fairness_k = num(toks, "overtake bound")?,
            "poll" => self.poll = num(toks, "cycle count")?.max(1),
            "deadline" => self.deadline = num(toks, "cycle count")?,
            "at" | "when-waiting" | "when-holding" => {
                let trigger = match head {
                    "at" => Trigger::AtCycle(num(toks, "cycle")?),
                    cond => {
                        let thread = num_u32(toks, "thread id")?;
                        keyword(toks, "after")?;
                        let after = num(toks, "cycle")?;
                        if cond == "when-waiting" {
                            Trigger::WhenWaiting { thread, after }
                        } else {
                            Trigger::WhenHolding { thread, after }
                        }
                    }
                };
                let verb = toks
                    .next()
                    .ok_or_else(|| "missing injection verb after trigger".to_string())?;
                let inject = match verb {
                    "suspend" => {
                        let thread = num_u32(toks, "thread id")?;
                        let duration = match toks.next() {
                            None => None,
                            Some("for") => Some(num(toks, "duration")?),
                            Some(other) => {
                                return Err(format!("expected \"for\", found {other:?}"));
                            }
                        };
                        Inject::Suspend { thread, duration }
                    }
                    "resume" => Inject::Resume {
                        thread: num_u32(toks, "thread id")?,
                    },
                    "migrate" => {
                        let thread = num_u32(toks, "thread id")?;
                        keyword(toks, "to")?;
                        Inject::Migrate {
                            thread,
                            to_core: num_u32(toks, "core id")?,
                        }
                    }
                    "flt-evict" => Inject::FltEvict {
                        core: num_u32(toks, "core id")?,
                    },
                    "wire-delay" => {
                        keyword(toks, "every")?;
                        let period = num(toks, "period")?;
                        if period == 0 {
                            return Err("wire-delay period must be positive".to_string());
                        }
                        keyword(toks, "extra")?;
                        Inject::WireDelay {
                            period,
                            extra: num(toks, "extra cycles")?,
                        }
                    }
                    "wire-clear" => Inject::WireClear,
                    other => return Err(format!("unknown injection verb {other:?}")),
                };
                self.events.push(FaultEvent { trigger, inject });
            }
            other => return Err(format!("unknown directive {other:?}")),
        }
        if let Some(extra) = toks.next() {
            return Err(format!("trailing token {extra:?}"));
        }
        Ok(self)
    }
}

/// Consumes the next token as a number, naming `what` on failure.
pub(crate) fn num(toks: &mut std::str::SplitWhitespace<'_>, what: &str) -> Result<u64, String> {
    let tok = toks.next().ok_or_else(|| format!("missing {what}"))?;
    tok.parse::<u64>()
        .map_err(|_| format!("bad {what} {tok:?} (expected a number)"))
}

/// Consumes the next token as a number that fits a `u32` (an id or a
/// count), naming `what` and the value when it does not.
pub(crate) fn num_u32(toks: &mut std::str::SplitWhitespace<'_>, what: &str) -> Result<u32, String> {
    let n = num(toks, what)?;
    u32::try_from(n).map_err(|_| format!("{what} {n} out of range (at most {})", u32::MAX))
}

/// Consumes the next token, requiring it to be exactly `kw`.
fn keyword(toks: &mut std::str::SplitWhitespace<'_>, kw: &str) -> Result<(), String> {
    match toks.next() {
        Some(t) if t == kw => Ok(()),
        other => Err(format!("expected {kw:?}, found {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_collects_events_in_order() {
        let p = FaultPlan::new()
            .horizon(10_000)
            .fairness_k(3)
            .poll(100)
            .deadline(50_000)
            .suspend_at(1_000, 2, 5_000)
            .migrate_at(2_000, 1, 3);
        assert_eq!(p.horizon, 10_000);
        assert_eq!(p.fairness_k, 3);
        assert_eq!(p.events.len(), 2);
        assert_eq!(p.events[0].inject.label(), "suspend");
        assert_eq!(p.events[1].inject.label(), "migrate");
    }

    #[test]
    fn parse_full_scenario() {
        let text = "\
# adversarial schedule
horizon 150000
fairness-k 4
poll 500          # trailing comment
deadline 600000
at 20000 suspend 1 for 80000
at 120000 resume 1
at 30000 migrate 2 to 3
when-waiting 1 after 5000 suspend 1 for 50000
when-holding 0 after 1000 suspend 0
at 10000 flt-evict 0
at 0 wire-delay every 3 extra 400
at 50000 wire-clear
";
        let p = FaultPlan::parse(text).expect("valid scenario");
        assert_eq!(p.horizon, 150_000);
        assert_eq!(p.fairness_k, 4);
        assert_eq!(p.poll, 500);
        assert_eq!(p.deadline, 600_000);
        assert_eq!(p.events.len(), 8);
        assert_eq!(
            p.events[0],
            FaultEvent {
                trigger: Trigger::AtCycle(20_000),
                inject: Inject::Suspend {
                    thread: 1,
                    duration: Some(80_000),
                },
            }
        );
        assert_eq!(
            p.events[3].trigger,
            Trigger::WhenWaiting {
                thread: 1,
                after: 5_000,
            }
        );
        assert_eq!(
            p.events[4].inject,
            Inject::Suspend {
                thread: 0,
                duration: None,
            }
        );
        assert_eq!(p.events[6].inject.label(), "wire_delay");
        assert_eq!(p.events[7].inject, Inject::WireClear);
    }

    #[test]
    fn parse_round_trips_through_builder_equivalent() {
        let parsed = FaultPlan::parse("at 100 suspend 0 for 50\n").unwrap();
        let built = FaultPlan::new().suspend_at(100, 0, 50);
        assert_eq!(parsed, built);
    }

    #[test]
    fn parse_errors_name_the_line_and_problem() {
        for (text, needle) in [
            ("frobnicate 3", "unknown directive"),
            ("at x suspend 0", "bad cycle"),
            ("at 10 explode 0", "unknown injection verb"),
            ("at 10 migrate 0 3", "expected \"to\""),
            ("at 10 suspend 0 for", "missing duration"),
            ("at 10 wire-delay every 0 extra 5", "must be positive"),
            ("horizon 5 extra", "trailing token"),
            ("when-waiting 1 5000 suspend 1", "expected \"after\""),
            (
                "at 100 suspend 4294967297 for 10",
                "thread id 4294967297 out of range",
            ),
            (
                "at 5 migrate 1 to 4294967296",
                "core id 4294967296 out of range",
            ),
        ] {
            let err = FaultPlan::parse(text).expect_err(text);
            assert!(err.contains("line 1"), "{err}");
            assert!(err.contains(needle), "{text}: {err}");
        }
    }

    #[test]
    fn poll_zero_is_clamped() {
        let p = FaultPlan::parse("poll 0").unwrap();
        assert_eq!(p.poll, 1);
    }

    #[test]
    fn validate_accepts_in_range_plan() {
        let p = FaultPlan::new()
            .suspend_at(100, 3, 50)
            .migrate_at(200, 0, 3)
            .flt_evict_at(300, 2)
            .wire_delay_at(0, 3, 400);
        assert_eq!(p.validate(4, 4), Ok(()));
    }

    #[test]
    fn validate_rejects_out_of_range_thread() {
        let p = FaultPlan::new().suspend_at(100, 4, 50);
        assert_eq!(
            p.validate(4, 4),
            Err(PlanError::ThreadOutOfRange {
                event: 0,
                thread: 4,
                n_threads: 4,
            })
        );
        // Conditional triggers are checked too.
        let p = FaultPlan::new().suspend_when_waiting(7, 0, 10);
        assert!(matches!(
            p.validate(4, 4),
            Err(PlanError::ThreadOutOfRange { thread: 7, .. })
        ));
    }

    #[test]
    fn validate_rejects_out_of_range_core() {
        let p = FaultPlan::new().suspend_at(0, 1, 10).migrate_at(50, 1, 9);
        assert_eq!(
            p.validate(4, 4),
            Err(PlanError::CoreOutOfRange {
                event: 1,
                core: 9,
                n_cores: 4,
            })
        );
        let p = FaultPlan::new().flt_evict_at(0, 4);
        assert!(matches!(
            p.validate(4, 4),
            Err(PlanError::CoreOutOfRange { core: 4, .. })
        ));
    }

    #[test]
    fn validate_rejects_resume_before_suspend() {
        // No suspend at all.
        let p = FaultPlan::new().event(Trigger::AtCycle(100), Inject::Resume { thread: 1 });
        assert_eq!(
            p.validate(4, 4),
            Err(PlanError::ResumeBeforeSuspend {
                event: 0,
                thread: 1,
            })
        );
        // Exact-cycle resume strictly before its exact-cycle suspend.
        let p = FaultPlan::new()
            .suspend_at(500, 1, 0)
            .event(Trigger::AtCycle(100), Inject::Resume { thread: 1 });
        assert!(matches!(
            p.validate(4, 4),
            Err(PlanError::ResumeBeforeSuspend { event: 1, .. })
        ));
        // Properly ordered pair is fine.
        let p = FaultPlan::new()
            .event(
                Trigger::AtCycle(100),
                Inject::Suspend {
                    thread: 1,
                    duration: None,
                },
            )
            .event(Trigger::AtCycle(500), Inject::Resume { thread: 1 });
        assert_eq!(p.validate(4, 4), Ok(()));
        // Conditional suspend has no statically known cycle — any later
        // resume of that thread passes.
        let p = FaultPlan::new()
            .suspend_when_waiting(1, 200, 10)
            .event(Trigger::AtCycle(1), Inject::Resume { thread: 1 });
        assert_eq!(p.validate(4, 4), Ok(()));
        // Two suspends of one thread: a resume after the earlier-firing
        // one passes even though it precedes the later-firing one.
        let indefinite = |thread| Inject::Suspend {
            thread,
            duration: None,
        };
        let p = FaultPlan::new()
            .event(Trigger::AtCycle(100), indefinite(1))
            .event(Trigger::AtCycle(900), indefinite(1))
            .event(Trigger::AtCycle(500), Inject::Resume { thread: 1 });
        assert_eq!(p.validate(4, 4), Ok(()));
        // ... and so does one after a later-listed conditional suspend.
        let p = FaultPlan::new()
            .event(Trigger::AtCycle(900), indefinite(1))
            .suspend_when_waiting(1, 200, 10)
            .event(Trigger::AtCycle(500), Inject::Resume { thread: 1 });
        assert_eq!(p.validate(4, 4), Ok(()));
        // A resume before the earliest of both exact suspends still fails.
        let p = FaultPlan::new()
            .event(Trigger::AtCycle(300), indefinite(1))
            .event(Trigger::AtCycle(900), indefinite(1))
            .event(Trigger::AtCycle(200), Inject::Resume { thread: 1 });
        assert!(matches!(
            p.validate(4, 4),
            Err(PlanError::ResumeBeforeSuspend { event: 2, .. })
        ));
    }

    #[test]
    fn plan_error_display_names_the_defect() {
        let e = PlanError::ThreadOutOfRange {
            event: 2,
            thread: 9,
            n_threads: 4,
        };
        assert!(e.to_string().contains("thread 9 out of range"));
        let e = PlanError::ResumeBeforeSuspend {
            event: 0,
            thread: 3,
        };
        assert!(e.to_string().contains("resume of thread 3"));
    }

    #[test]
    fn format_round_trips_every_event_kind() {
        let p = FaultPlan::new()
            .horizon(77_000)
            .fairness_k(5)
            .poll(250)
            .deadline(900_000)
            .suspend_at(20_000, 1, 80_000)
            .event(
                Trigger::AtCycle(30_000),
                Inject::Suspend {
                    thread: 2,
                    duration: None,
                },
            )
            .event(Trigger::AtCycle(40_000), Inject::Resume { thread: 2 })
            .migrate_at(50_000, 0, 3)
            .migrate_when_waiting(3, 1_000, 2)
            .suspend_when_holding(0, 2_000, 9_000)
            .flt_evict_at(60_000, 1)
            .wire_delay_at(0, 7, 350)
            .event(Trigger::AtCycle(70_000), Inject::WireClear);
        let text = p.format();
        let back = FaultPlan::parse(&text).expect("formatted plan parses");
        assert_eq!(back, p);
    }
}
