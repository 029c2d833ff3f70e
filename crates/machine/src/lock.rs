//! The lock-backend interface: how lock implementations (hardware LCU/SSB
//! units or software algorithms) plug into the machine.

use locksim_coherence::LineAddr;
use locksim_engine::stats::Counters;
use locksim_engine::Cycles;

use crate::addr::Addr;
use crate::prog::{CoreId, ThreadId};
use crate::world::Mach;

/// Reader or writer lock mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Shared (reader) access.
    Read,
    /// Exclusive (writer) access.
    Write,
}

impl Mode {
    /// True for [`Mode::Write`].
    pub fn is_write(self) -> bool {
        matches!(self, Mode::Write)
    }
}

/// A capacity fault injected into a lock backend (see
/// [`crate::World::inject_backend_fault`]). Backends opt in per fault class
/// via [`LockBackend::on_fault`]; unsupported classes are reported back to
/// the injector as unapplied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendFault {
    /// Force-evict one parked free-lock-table entry on `core`, as capacity
    /// pressure would (LCU backends only).
    FltEvict {
        /// The core whose FLT loses an entry.
        core: usize,
    },
}

/// A lock implementation driven by the machine's event loop.
///
/// Exactly one backend exists per [`crate::World`]. The world forwards
/// program lock actions and asynchronous events (wire messages, timers,
/// memory completions, invalidation wakeups, scheduling changes); the
/// backend eventually resolves each acquire with [`Mach::grant_lock`] or
/// [`Mach::fail_lock`] and each release with [`Mach::complete_release`],
/// each taking the backend's own processing delay in cycles (0 for none).
/// The machine checks reader-writer exclusion at every grant and release,
/// so a backend carries no checker of its own.
///
/// Backends model their own timing through [`Mach`] services:
/// [`Mach::send_wire`] for protocol messages between hardware units,
/// [`Mach::backend_mem`] for memory operations executed on a thread's
/// behalf (software locks), [`Mach::watch_line`] for local spinning, and
/// [`Mach::set_timer`] for timeouts.
pub trait LockBackend {
    /// Short name for reports (e.g. `"lcu"`, `"mcs"`).
    fn name(&self) -> &'static str;

    /// An independent copy of this backend's state, for [`crate::World::fork`].
    /// Every backend is plain data, so this is a `Box` of its `clone()`.
    fn fork(&self) -> Box<dyn LockBackend>;

    /// Thread `t` requests `lock` in `mode`. `try_for` of `Some(budget)`
    /// means the attempt must fail after `budget` cycles if not granted.
    fn on_acquire(
        &mut self,
        m: &mut Mach,
        t: ThreadId,
        lock: Addr,
        mode: Mode,
        try_for: Option<Cycles>,
    );

    /// Thread `t` releases `lock` (held in `mode`). Must eventually call
    /// [`Mach::complete_release`].
    fn on_release(&mut self, m: &mut Mach, t: ThreadId, lock: Addr, mode: Mode);

    /// A wire message sent earlier via [`Mach::send_wire`] has arrived;
    /// `token` is the one passed to `send_wire`. The backend keeps the
    /// message itself (see [`crate::InFlight`]).
    fn on_wire(&mut self, m: &mut Mach, token: u64) {
        let _ = (m, token);
    }

    /// A timer set via [`Mach::set_timer`] fired.
    fn on_timer(&mut self, m: &mut Mach, token: u64) {
        let _ = (m, token);
    }

    /// A memory operation issued via [`Mach::backend_mem`] for thread `t`
    /// completed; `value` is the loaded / pre-RMW value.
    fn on_mem_value(&mut self, m: &mut Mach, t: ThreadId, value: u64) {
        let _ = (m, t, value);
    }

    /// A line watched via [`Mach::watch_line`] for thread `t` was
    /// invalidated (one-shot; re-arm if still interested).
    fn on_line_invalidated(&mut self, m: &mut Mach, t: ThreadId, line: LineAddr) {
        let _ = (m, t, line);
    }

    /// Thread `t` was installed on `core` (initial placement, reschedule
    /// after preemption, or migration).
    fn on_thread_scheduled(&mut self, m: &mut Mach, t: ThreadId, core: CoreId) {
        let _ = (m, t, core);
    }

    /// Thread `t` left its core: preempted by a quantum tick, yielded,
    /// suspended, evicted by a migration onto its core, or migrated itself
    /// (see [`crate::World::migrate`]).
    fn on_thread_descheduled(&mut self, m: &mut Mach, t: ThreadId) {
        let _ = (m, t);
    }

    /// A capacity fault was injected. Returns `true` if the backend applied
    /// it; the default declines every fault class.
    fn on_fault(&mut self, m: &mut Mach, fault: BackendFault) -> bool {
        let _ = (m, fault);
        false
    }

    /// Protocol counters for reports.
    fn counters(&self) -> Counters {
        Counters::new()
    }

    /// Human-readable internal state dump for stall diagnostics.
    fn debug_state(&self) -> String {
        String::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_predicates() {
        assert!(Mode::Write.is_write());
        assert!(!Mode::Read.is_write());
    }
}
