//! The lock-transfer-time microbenchmark (paper §IV-A, Figures 9 & 10).
//!
//! Multiple threads iteratively access one short critical section protected
//! by a single lock; the handling time dominates. Reported metric: average
//! cycles per critical section = runtime / total iterations.

use std::cell::RefCell;
use std::rc::Rc;

use locksim_engine::Cycles;
use locksim_machine::{Action, Addr, Ctx, Forks, Mode, Outcome, Program};

/// Shared iteration budget: threads pull from a common pool so the run
/// finishes after a fixed total iteration count, matching the paper's
/// "50 000 iterations" methodology.
#[derive(Debug, Clone)]
pub struct IterPool {
    remaining: RefCell<u64>,
}

impl IterPool {
    /// Creates a pool of `total` iterations.
    pub fn new(total: u64) -> Rc<Self> {
        Rc::new(IterPool {
            remaining: RefCell::new(total),
        })
    }

    /// Iterations not yet taken.
    pub fn remaining(&self) -> u64 {
        *self.remaining.borrow()
    }

    fn take(&self) -> bool {
        let mut r = self.remaining.borrow_mut();
        if *r == 0 {
            false
        } else {
            *r -= 1;
            true
        }
    }
}

/// One microbenchmark thread: loop { acquire; short CS; release }.
///
/// By default the critical section is pure computation ("a few arithmetic
/// operations", as in the paper) so that lock handling dominates; enable
/// [`CsThread::with_shared_data`] to also migrate a shared line per CS.
#[derive(Debug)]
pub struct CsThread {
    lock: Addr,
    data: Addr,
    touch_data: bool,
    pool: Rc<IterPool>,
    /// Percentage of write-mode acquisitions (100 = mutual exclusion).
    write_pct: u32,
    cs_compute: Cycles,
    stage: u8,
    is_writer: bool,
    val: u64,
}

impl CsThread {
    /// Creates a thread hammering `lock` with a compute-only CS.
    pub fn new(lock: Addr, data: Addr, pool: Rc<IterPool>, write_pct: u32) -> Self {
        CsThread {
            lock,
            data,
            touch_data: false,
            pool,
            write_pct,
            cs_compute: 20,
            stage: 0,
            is_writer: true,
            val: 0,
        }
    }

    /// Also read (and, for writers, update) a shared data word inside the
    /// critical section.
    pub fn with_shared_data(mut self) -> Self {
        self.touch_data = true;
        self
    }

    /// Overrides the critical-section compute length (default 20 cycles).
    /// Long read sections keep read sessions overlapping, which is what
    /// exposes reader-preference writer starvation.
    pub fn with_cs_compute(mut self, cycles: Cycles) -> Self {
        self.cs_compute = cycles;
        self
    }
}

impl Program for CsThread {
    fn resume(&mut self, ctx: &mut Ctx<'_>, outcome: Outcome) -> Action {
        loop {
            match self.stage {
                0 => {
                    if !self.pool.take() {
                        return Action::Done;
                    }
                    self.is_writer = ctx.rng.below(100) < u64::from(self.write_pct);
                    self.stage = 1;
                    let mode = if self.is_writer {
                        Mode::Write
                    } else {
                        Mode::Read
                    };
                    return Action::Acquire {
                        lock: self.lock,
                        mode,
                        try_for: None,
                    };
                }
                1 => {
                    if self.touch_data {
                        self.stage = 2;
                        return Action::Read(self.data);
                    }
                    self.stage = 3;
                    continue;
                }
                2 => {
                    let Outcome::Value(v) = outcome else {
                        panic!("expected value")
                    };
                    self.val = v;
                    self.stage = 3;
                    continue;
                }
                3 => {
                    self.stage = 4;
                    // A few arithmetic operations (paper: "only a few
                    // arithmetic operations").
                    return Action::Compute(self.cs_compute);
                }
                4 => {
                    self.stage = 5;
                    if self.touch_data && self.is_writer {
                        return Action::Write(self.data, self.val.wrapping_add(1));
                    }
                    continue;
                }
                5 => {
                    self.stage = 6;
                    let mode = if self.is_writer {
                        Mode::Write
                    } else {
                        Mode::Read
                    };
                    return Action::Release {
                        lock: self.lock,
                        mode,
                    };
                }
                6 => {
                    self.stage = 0;
                    continue;
                }
                _ => unreachable!(),
            }
        }
    }

    fn label(&self) -> &'static str {
        "cs-microbench"
    }

    fn fork(&self, forks: &mut Forks) -> Option<Box<dyn Program>> {
        Some(Box::new(CsThread {
            pool: forks.share(&self.pool),
            ..*self
        }))
    }
}
