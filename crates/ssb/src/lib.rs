//! The **Synchronization State Buffer (SSB)** baseline — the hardware
//! fine-grain locking mechanism of Zhu et al. (ISCA 2007), as modelled by
//! the paper's evaluation.
//!
//! Each memory controller hosts an SSB bank: a bounded table of
//! `(address → lock state)` entries allocated on demand. All lock
//! operations are **remote**: the requesting core sends a message to the
//! address's home bank, which grants or denies atomically and replies.
//! Denied requestors retry from software after a backoff — there is no
//! queue, no local spinning, and no fairness:
//!
//! * reader-preference reader-writer semantics (readers are granted while
//!   the lock is in read mode even with writers waiting, which can starve
//!   writers — the unfairness the paper contrasts the LCU against);
//! * every transfer costs at least a round trip to the home controller
//!   (the ~30% lock-transfer gap of Figure 9a);
//! * contended locks generate repeated remote retries, which saturate the
//!   inter-chip hub links of Model B (the collapse of Figure 9b).
//!
//! # Example
//!
//! ```
//! use locksim_machine::{testing::ScriptProgram, Action, MachineConfig, Mode, World};
//! use locksim_ssb::SsbBackend;
//!
//! let mut w = World::new(MachineConfig::model_a(4), Box::new(SsbBackend::new()), 1);
//! let lock = w.mach().alloc().alloc_line();
//! w.spawn(Box::new(ScriptProgram::new(vec![
//!     Action::Acquire { lock, mode: Mode::Write, try_for: None },
//!     Action::Compute(100),
//!     Action::Release { lock, mode: Mode::Write },
//! ])));
//! w.run_to_completion();
//! ```

#![forbid(unsafe_code)]

use locksim_engine::{Cycles, FxHashMap, Time};
use locksim_machine::{Addr, Ep, InFlight, LockBackend, Mach, Mode, PerThread, ThreadId};
use locksim_topo::MsgClass;

/// SSB entries per bank (Zhu et al. size their SSB in the hundreds; the
/// paper's evaluation does not stress SSB capacity).
const SSB_ENTRIES: usize = 512;

/// State of one SSB lock entry.
#[derive(Debug, Clone, PartialEq, Eq)]
enum SsbState {
    /// Held exclusively by one thread.
    Write(ThreadId),
    /// Held by `n` readers.
    Read(u32),
}

#[derive(Debug, Clone, Copy)]
enum SsbMsg {
    /// Core → bank: request.
    Req {
        addr: Addr,
        tid: ThreadId,
        mode: Mode,
        core: usize,
    },
    /// Core → bank: release.
    Rel {
        addr: Addr,
        tid: ThreadId,
        mode: Mode,
        core: usize,
        /// Release of an orphaned grant (no thread waits for the ack).
        orphan: bool,
    },
    /// Bank → core: grant.
    Grant {
        addr: Addr,
        tid: ThreadId,
        mode: Mode,
    },
    /// Bank → core: denied (retry from software).
    Deny { addr: Addr, tid: ThreadId },
    /// Bank → core: release acknowledged.
    RelAck { tid: ThreadId, orphan: bool },
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    addr: Addr,
    mode: Mode,
    /// Absolute deadline for a trylock, if any.
    deadline: Option<Time>,
}

/// The SSB lock backend. See the crate docs.
#[derive(Debug, Clone, Default)]
pub struct SsbBackend {
    banks: Vec<FxHashMap<Addr, SsbState>>,
    pending: PerThread<Pending>,
    /// The thread each retry timer re-drives.
    retry_timers: InFlight<ThreadId>,
    wire: InFlight<SsbMsg>,
}

impl SsbBackend {
    /// Creates the backend; banks are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure_init(&mut self, m: &Mach) {
        if self.banks.is_empty() {
            self.banks = (0..m.n_mems()).map(|_| FxHashMap::default()).collect();
        }
    }

    fn send_req(&mut self, m: &mut Mach, t: ThreadId) {
        let Some(p) = self.pending.get(t).copied() else {
            return;
        };
        let Some(core) = m.core_of(t) else {
            // Preempted: try again next backoff window.
            self.arm_retry(m, t);
            return;
        };
        let core = core.0 as usize;
        let home = m.home_of(p.addr);
        m.counters_mut().incr("ssb_requests");
        let msg = SsbMsg::Req {
            addr: p.addr,
            tid: t,
            mode: p.mode,
            core,
        };
        self.send(m, Ep::Core(core), Ep::Mem(home), 0, msg);
    }

    /// Sends `msg` over the wire as a control message.
    fn send(&mut self, m: &mut Mach, src: Ep, dst: Ep, extra: Cycles, msg: SsbMsg) {
        let token = self.wire.put(msg);
        m.send_wire(src, dst, MsgClass::Control, extra, token);
    }

    fn arm_retry(&mut self, m: &mut Mach, t: ThreadId) {
        let token = self.retry_timers.put(t);
        m.set_timer(m.cfg().ssb_retry_backoff, token);
    }

    fn bank_handle(&mut self, m: &mut Mach, msg: SsbMsg) {
        match msg {
            SsbMsg::Req {
                addr,
                tid,
                mode,
                core,
            } => {
                let home = m.home_of(addr);
                let bank = &mut self.banks[home];
                let granted = match (bank.get_mut(&addr), mode) {
                    (None, _) => {
                        if bank.len() >= SSB_ENTRIES {
                            // Table full: deny; the requestor's software
                            // retry loop stands in for the SSB's software
                            // fallback path.
                            m.counters_mut().incr("ssb_overflow_denials");
                            false
                        } else {
                            bank.insert(
                                addr,
                                match mode {
                                    Mode::Write => SsbState::Write(tid),
                                    Mode::Read => SsbState::Read(1),
                                },
                            );
                            true
                        }
                    }
                    (Some(SsbState::Read(n)), Mode::Read) => {
                        // Reader preference: join the read session even if
                        // writers are retrying (they starve).
                        *n += 1;
                        true
                    }
                    _ => false,
                };
                let reply = if granted {
                    m.counters_mut().incr("ssb_grants");
                    m.trace_entry_state(
                        Ep::Mem(home),
                        addr,
                        match mode {
                            Mode::Write => "SsbWrite",
                            Mode::Read => "SsbRead",
                        },
                    );
                    SsbMsg::Grant { addr, tid, mode }
                } else {
                    m.counters_mut().incr("ssb_denials");
                    SsbMsg::Deny { addr, tid }
                };
                let lat = m.cfg().lrt_latency;
                self.send(m, Ep::Mem(home), Ep::Core(core), lat, reply);
            }
            SsbMsg::Rel {
                addr,
                tid,
                mode,
                core,
                orphan,
            } => {
                let home = m.home_of(addr);
                let bank = &mut self.banks[home];
                match (bank.get_mut(&addr), mode) {
                    (Some(SsbState::Write(owner)), Mode::Write) => {
                        debug_assert_eq!(*owner, tid, "SSB write release by non-owner");
                        bank.remove(&addr);
                    }
                    (Some(SsbState::Read(n)), Mode::Read) => {
                        *n -= 1;
                        if *n == 0 {
                            bank.remove(&addr);
                        }
                    }
                    (st, _) => panic!("SSB release of {addr} in state {st:?}"),
                }
                if !bank.contains_key(&addr) {
                    m.trace_entry_state(Ep::Mem(home), addr, "SsbFree");
                }
                let lat = m.cfg().lrt_latency;
                let reply = SsbMsg::RelAck { tid, orphan };
                self.send(m, Ep::Mem(home), Ep::Core(core), lat, reply);
            }
            _ => unreachable!("bank only receives Req/Rel"),
        }
    }
}

impl LockBackend for SsbBackend {
    fn name(&self) -> &'static str {
        "ssb"
    }

    fn fork(&self) -> Box<dyn LockBackend> {
        Box::new(self.clone())
    }

    fn on_acquire(
        &mut self,
        m: &mut Mach,
        t: ThreadId,
        lock: Addr,
        mode: Mode,
        try_for: Option<Cycles>,
    ) {
        self.ensure_init(m);
        assert!(!self.pending.contains_key(t), "{t:?} already acquiring");
        let deadline = try_for.map(|b| m.now() + b);
        self.pending.insert(
            t,
            Pending {
                addr: lock,
                mode,
                deadline,
            },
        );
        self.send_req(m, t);
    }

    fn on_release(&mut self, m: &mut Mach, t: ThreadId, lock: Addr, mode: Mode) {
        self.ensure_init(m);
        let core = m.core_of(t).expect("release from scheduled thread").0 as usize;
        let home = m.home_of(lock);
        m.counters_mut().incr("ssb_releases");
        let msg = SsbMsg::Rel {
            addr: lock,
            tid: t,
            mode,
            core,
            orphan: false,
        };
        self.send(m, Ep::Core(core), Ep::Mem(home), 0, msg);
    }

    fn on_wire(&mut self, m: &mut Mach, token: u64) {
        self.ensure_init(m);
        let msg = self.wire.take(token);
        match msg {
            SsbMsg::Req { .. } | SsbMsg::Rel { .. } => self.bank_handle(m, msg),
            SsbMsg::Grant { addr, tid, mode } => {
                let wants = self.pending.get(tid).is_some_and(|p| p.addr == addr);
                if !wants {
                    // Trylock expired while the grant was in flight: give
                    // the lock straight back.
                    m.counters_mut().incr("ssb_orphan_grants");
                    let home = m.home_of(addr);
                    // The ack will go to whatever core; nobody waits on it.
                    let core = m.core_of(tid).map(|c| c.0 as usize).unwrap_or(0);
                    let rel = SsbMsg::Rel {
                        addr,
                        tid,
                        mode,
                        core,
                        orphan: true,
                    };
                    self.send(m, Ep::Core(core), Ep::Mem(home), 0, rel);
                    return;
                }
                self.pending.remove(tid);
                m.grant_lock(tid, 0);
            }
            SsbMsg::Deny { addr, tid } => {
                let Some(p) = self.pending.get(tid).copied() else {
                    return;
                };
                debug_assert_eq!(p.addr, addr);
                if let Some(deadline) = p.deadline {
                    if m.now() >= deadline {
                        self.pending.remove(tid);
                        m.counters_mut().incr("ssb_try_expires");
                        m.fail_lock(tid, 0);
                        return;
                    }
                }
                m.counters_mut().incr("ssb_retries");
                m.lockstat_mut().bump(addr.0, "ssb_remote_retries");
                self.arm_retry(m, tid);
            }
            SsbMsg::RelAck { tid, orphan } => {
                if !orphan {
                    m.complete_release(tid, 0);
                }
            }
        }
    }

    fn on_timer(&mut self, m: &mut Mach, token: u64) {
        let t = self.retry_timers.take(token);
        if self.pending.contains_key(t) {
            self.send_req(m, t);
        }
    }

    fn on_thread_descheduled(&mut self, m: &mut Mach, t: ThreadId) {
        // The SSB keeps retrying from the bank side regardless, but an
        // off-core requester cannot take a grant; count the exposure for
        // fault attribution.
        if let Some(p) = self.pending.get(t) {
            let addr = p.addr;
            m.lockstat_bump(addr, "ssb_descheduled_midop");
        }
    }
}
