//! Workload programs: explicit state machines driven by the event loop.
//!
//! A simulated thread runs a [`Program`]. The world resumes the program with
//! the [`Outcome`] of its previous action; the program returns the next
//! [`Action`]. Blocking is implicit: a program issuing
//! [`Action::Acquire`] is not resumed until the lock backend grants or
//! fails the request.

use std::any::Any;
use std::rc::Rc;

use locksim_engine::{Cycles, RngStream, Time};

use crate::addr::Addr;
use crate::lock::Mode;

/// Identifies a simulated software thread (the paper's `threadid`, which
/// decouples locks from physical cores).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId(pub u32);

/// Identifies a core (and its L1 cache and LCU).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoreId(pub u32);

/// Atomic read-modify-write operations. All return the *old* value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RmwOp {
    /// Unconditionally store the operand.
    Swap(u64),
    /// Store `new` iff the current value equals `expect`.
    CompareSwap {
        /// Expected current value.
        expect: u64,
        /// Replacement value.
        new: u64,
    },
    /// Wrapping add.
    FetchAdd(u64),
}

impl RmwOp {
    /// Applies the operation to `old`, returning the new stored value.
    pub fn apply(self, old: u64) -> u64 {
        match self {
            RmwOp::Swap(v) => v,
            RmwOp::CompareSwap { expect, new } => {
                if old == expect {
                    new
                } else {
                    old
                }
            }
            RmwOp::FetchAdd(d) => old.wrapping_add(d),
        }
    }
}

/// What a program asks the machine to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Execute locally for the given number of cycles.
    Compute(Cycles),
    /// Load a word; resumes with [`Outcome::Value`].
    Read(Addr),
    /// Store a word; resumes with [`Outcome::Completed`].
    Write(Addr, u64),
    /// Atomic RMW; resumes with [`Outcome::Value`] carrying the old value.
    Rmw(Addr, RmwOp),
    /// Acquire `lock` in `mode`. With `try_for: None` this blocks until
    /// granted ([`Outcome::Granted`]); with `Some(budget)` the backend
    /// abandons the attempt after `budget` cycles ([`Outcome::Failed`]).
    Acquire {
        /// Word address of the lock.
        lock: Addr,
        /// Read or write mode.
        mode: Mode,
        /// Trylock budget, if any.
        try_for: Option<Cycles>,
    },
    /// Release `lock`; resumes with [`Outcome::Completed`].
    Release {
        /// Word address of the lock.
        lock: Addr,
        /// Mode it was held in.
        mode: Mode,
    },
    /// Voluntarily yield the core; resumes with [`Outcome::Completed`] when
    /// rescheduled.
    Yield,
    /// Terminate this thread.
    Done,
}

/// Why a program was resumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// First resume after spawn.
    Started,
    /// The previous action completed (compute, write, release, yield).
    Completed,
    /// A read or RMW completed with this (old) value.
    Value(u64),
    /// The lock was acquired.
    Granted,
    /// A trylock gave up.
    Failed,
}

/// Per-resume context handed to programs.
#[derive(Debug)]
pub struct Ctx<'a> {
    /// Current simulated time.
    pub now: Time,
    /// This thread.
    pub tid: ThreadId,
    /// Core the thread is currently scheduled on.
    pub core: CoreId,
    /// The thread's private random stream.
    pub rng: &'a mut RngStream,
}

/// A workload state machine. See the crate docs for the execution model.
pub trait Program {
    /// Delivers the outcome of the previous action and obtains the next.
    /// First call passes [`Outcome::Started`].
    fn resume(&mut self, ctx: &mut Ctx<'_>, outcome: Outcome) -> Action;

    /// Short label for traces.
    fn label(&self) -> &'static str {
        "program"
    }

    /// An independent copy of this program's state, for
    /// [`crate::World::fork`]. State the program shares with other programs
    /// of its world through an `Rc` goes through [`Forks::share`], so the
    /// fork's programs share one copy of it. The default, `None`, makes the
    /// world unforkable.
    fn fork(&self, forks: &mut Forks) -> Option<Box<dyn Program>> {
        let _ = forks;
        None
    }
}

/// The copies made while forking one world's programs: each `Rc` the
/// source programs share maps to one fresh copy, so the fork's programs
/// share their own value and never the source's.
#[derive(Default)]
pub struct Forks {
    /// Source allocation address → its copy.
    copies: Vec<(*const (), Rc<dyn Any>)>,
}

impl Forks {
    /// The fork's copy of `shared`: made on the first call for that `Rc`,
    /// returned again for every later one.
    pub fn share<T: Clone + 'static>(&mut self, shared: &Rc<T>) -> Rc<T> {
        let key = Rc::as_ptr(shared).cast::<()>();
        if let Some((_, copy)) = self.copies.iter().find(|(k, _)| *k == key) {
            return Rc::clone(copy)
                .downcast()
                .unwrap_or_else(|_| unreachable!("one allocation has one type"));
        }
        let copy = Rc::new(T::clone(shared));
        self.copies.push((key, Rc::clone(&copy) as Rc<dyn Any>));
        copy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmw_swap() {
        assert_eq!(RmwOp::Swap(7).apply(3), 7);
    }

    #[test]
    fn rmw_cas_success_and_failure() {
        assert_eq!(RmwOp::CompareSwap { expect: 3, new: 9 }.apply(3), 9);
        assert_eq!(RmwOp::CompareSwap { expect: 3, new: 9 }.apply(4), 4);
    }

    #[test]
    fn rmw_fetch_add_wraps() {
        assert_eq!(RmwOp::FetchAdd(1).apply(u64::MAX), 0);
        assert_eq!(RmwOp::FetchAdd(5).apply(10), 15);
    }
}
