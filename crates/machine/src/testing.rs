//! Program helpers for tests and examples.

use std::collections::VecDeque;

use crate::prog::{Action, Ctx, Forks, Outcome, Program};

/// Runs a fixed list of actions in order, ignoring outcomes, then finishes.
///
/// # Example
///
/// ```
/// use locksim_machine::testing::ScriptProgram;
/// use locksim_machine::Action;
///
/// let p = ScriptProgram::new(vec![Action::Compute(10), Action::Compute(20)]);
/// assert_eq!(p.remaining(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct ScriptProgram {
    steps: VecDeque<Action>,
}

impl ScriptProgram {
    /// Creates a program from a list of actions.
    pub fn new(steps: Vec<Action>) -> Self {
        ScriptProgram {
            steps: steps.into(),
        }
    }

    /// Actions not yet executed.
    pub fn remaining(&self) -> usize {
        self.steps.len()
    }
}

impl Program for ScriptProgram {
    fn resume(&mut self, _ctx: &mut Ctx<'_>, _outcome: Outcome) -> Action {
        self.steps.pop_front().unwrap_or(Action::Done)
    }

    fn label(&self) -> &'static str {
        "script"
    }

    fn fork(&self, _forks: &mut Forks) -> Option<Box<dyn Program>> {
        Some(Box::new(self.clone()))
    }
}

/// Wraps a closure as a program: called with each outcome, returns the next
/// action. Useful for ad-hoc state machines in tests.
pub struct FnProgram<F>(pub F);

impl<F> Program for FnProgram<F>
where
    F: FnMut(&mut Ctx<'_>, Outcome) -> Action,
{
    fn resume(&mut self, ctx: &mut Ctx<'_>, outcome: Outcome) -> Action {
        (self.0)(ctx, outcome)
    }

    fn label(&self) -> &'static str {
        "fn"
    }
}

impl<F> std::fmt::Debug for FnProgram<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("FnProgram(..)")
    }
}
