//! Typed trace records.
//!
//! Records are deliberately primitive — integer ids, `&'static str` labels —
//! so this crate sits below `machine`/`topo`/`coherence` in the dependency
//! graph and every layer can emit events without import cycles. A record is
//! (time, endpoint, kind): the endpoint picks the display track, the kind
//! carries the payload.

use locksim_engine::Time;

/// The component a record is attributed to; one Perfetto track per endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ep {
    /// A CPU core (and its cache controller / LCU).
    Core(u32),
    /// A directory / memory controller (and its LRT).
    Dir(u32),
    /// A software thread.
    Thread(u32),
    /// A point-to-point network link.
    Link(u16, u16),
    /// Machine-wide events (timers, run markers).
    Global,
}

/// What happened. Message fields are flit classes and endpoint ids; lock
/// fields are line addresses; state labels are the emitting protocol's own
/// state names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A network message entered a link.
    MsgSend {
        /// Message class label ("control" / "data").
        class: &'static str,
        /// Source endpoint id.
        from: u16,
        /// Destination endpoint id.
        to: u16,
    },
    /// A network message was delivered to its destination.
    MsgRecv {
        /// Message class label ("control" / "data").
        class: &'static str,
        /// Source endpoint id.
        from: u16,
        /// Destination endpoint id.
        to: u16,
    },
    /// A cache line changed coherence state.
    Coherence {
        /// The line address.
        line: u64,
        /// State before the transition.
        from: &'static str,
        /// State after the transition.
        to: &'static str,
    },
    /// A thread asked its lock backend for a lock.
    LockRequest {
        /// Lock line address.
        lock: u64,
        /// Requesting thread.
        thread: u32,
        /// True for write/exclusive mode.
        write: bool,
    },
    /// The backend granted a lock.
    LockGrant {
        /// Lock line address.
        lock: u64,
        /// Granted thread.
        thread: u32,
        /// True for write/exclusive mode.
        write: bool,
        /// Cycles spent waiting since the request.
        wait: u64,
    },
    /// A thread released a lock.
    LockRelease {
        /// Lock line address.
        lock: u64,
        /// Releasing thread.
        thread: u32,
        /// True for write/exclusive mode.
        write: bool,
    },
    /// A trylock gave up (budget exhausted).
    LockFail {
        /// Lock line address.
        lock: u64,
        /// Failing thread.
        thread: u32,
    },
    /// An LCU/LRT/SSB entry changed state for a lock.
    EntryState {
        /// Lock line address the entry serves.
        lock: u64,
        /// New entry state label (protocol-specific).
        state: &'static str,
    },
    /// A thread started running on a core.
    SchedRun {
        /// The thread.
        thread: u32,
        /// The core it runs on.
        core: u32,
    },
    /// A thread was preempted off a core.
    SchedPreempt {
        /// The thread.
        thread: u32,
        /// The core it left.
        core: u32,
    },
    /// A thread migrated between cores.
    SchedMigrate {
        /// The thread.
        thread: u32,
        /// Source core.
        from: u32,
        /// Destination core.
        to: u32,
    },
    /// The starvation watchdog flagged a wait exceeding its threshold.
    Starve {
        /// Lock line address.
        lock: u64,
        /// The starved thread.
        thread: u32,
        /// True when the starved request was for write mode.
        write: bool,
        /// Cycles the thread had waited when flagged.
        waited: u64,
    },
    /// The fault-injection subsystem applied an injection.
    FaultInject {
        /// Fault class label ("suspend", "resume", "migrate", "flt_evict",
        /// "lrt_evict", "wire_delay").
        fault: &'static str,
        /// The targeted thread (`u32::MAX` for machine-wide faults).
        thread: u32,
        /// Fault-specific argument (destination core, delay cycles, …).
        arg: u64,
    },
    /// The chaos quiescence detector declared the run deadlocked: pending
    /// runnable waiters with no lock-protocol progress and no injection
    /// still able to unwedge them.
    Deadlock {
        /// Lock line the first runnable blocked waiter is queued on.
        lock: u64,
        /// Runnable waiters pending when progress stopped.
        waiters: u32,
    },
    /// A liveness/fairness/exclusion oracle detected a violation.
    OracleViolation {
        /// The violated oracle ("liveness", "fairness", "exclusion").
        oracle: &'static str,
        /// Lock line address the violation concerns.
        lock: u64,
        /// The wronged thread.
        thread: u32,
        /// Oracle-specific magnitude (cycles waited, overtake count).
        value: u64,
    },
    /// A protocol timer fired.
    TimerFire {
        /// What the timer guards (protocol-specific label).
        label: &'static str,
    },
}

impl TraceKind {
    /// Short display name of the record kind.
    pub fn name(&self) -> &'static str {
        match self {
            TraceKind::MsgSend { .. } => "msg_send",
            TraceKind::MsgRecv { .. } => "msg_recv",
            TraceKind::Coherence { .. } => "coherence",
            TraceKind::LockRequest { .. } => "lock_request",
            TraceKind::LockGrant { .. } => "lock_grant",
            TraceKind::LockRelease { .. } => "lock_release",
            TraceKind::LockFail { .. } => "lock_fail",
            TraceKind::EntryState { .. } => "entry_state",
            TraceKind::SchedRun { .. } => "sched_run",
            TraceKind::SchedPreempt { .. } => "sched_preempt",
            TraceKind::SchedMigrate { .. } => "sched_migrate",
            TraceKind::Starve { .. } => "starve",
            TraceKind::FaultInject { .. } => "fault_inject",
            TraceKind::Deadlock { .. } => "deadlock",
            TraceKind::OracleViolation { .. } => "oracle_violation",
            TraceKind::TimerFire { .. } => "timer_fire",
        }
    }

    /// The lock line this record concerns, if any — used to filter the
    /// history dumped on an exclusion-checker abort.
    pub fn lock_addr(&self) -> Option<u64> {
        match *self {
            TraceKind::LockRequest { lock, .. }
            | TraceKind::LockGrant { lock, .. }
            | TraceKind::LockRelease { lock, .. }
            | TraceKind::LockFail { lock, .. }
            | TraceKind::EntryState { lock, .. }
            | TraceKind::Starve { lock, .. }
            | TraceKind::Deadlock { lock, .. }
            | TraceKind::OracleViolation { lock, .. } => Some(lock),
            _ => None,
        }
    }
}

/// One trace record: when, where, what.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated time of the event.
    pub t: Time,
    /// The component it is attributed to.
    pub ep: Ep,
    /// The event payload.
    pub kind: TraceKind,
}
