//! The LCU/LRT protocol driver: a [`LockBackend`] implementation wiring the
//! per-core LCU tables and per-memory-controller LRTs into the machine's
//! event loop.

use std::collections::BTreeMap;

use locksim_engine::{Cycles, FxHashMap};
use locksim_machine::{
    Addr, BackendFault, CoreId, Ep, InFlight, LockBackend, Mach, Mode, PerThread, ThreadId,
};
use locksim_topo::MsgClass;

use crate::entry::{EntryKind, Lcu, Status};
use crate::lrt::{Lrt, Residency};
use crate::msg::{Msg, Node};

/// A thread's outstanding acquire request.
#[derive(Debug, Clone, Copy)]
struct Req {
    addr: Addr,
    mode: Mode,
    /// Core the live request was issued from.
    core: usize,
    /// The grant timed out at the issuing LCU and was passed on; the request
    /// must be re-issued when the thread is scheduled again.
    needs_reissue: bool,
}

/// A lock a thread currently holds.
#[derive(Debug, Clone, Copy)]
struct Held {
    mode: Mode,
    /// Granted in LRT overflow mode (no queue membership).
    overflow: bool,
    /// Transfer count at grant time (restored when the LCU entry is
    /// re-allocated on demand).
    cnt: u64,
}

/// A release of a lock taken uncontended, whose LCU entry was freed at take
/// time (§III-A case (a)) or whose lock sat parked in the FLT: an entry must
/// be re-allocated before the LRT can hear of the release.
#[derive(Debug, Clone, Copy)]
struct UncontendedRelease {
    tid: ThreadId,
    addr: Addr,
    mode: Mode,
    core: usize,
    /// Transfer count of the hold being released.
    cnt: u64,
    /// The thread is blocked in its release until the message goes out, so
    /// the release path owes it the completion. An FLT unpark releases a
    /// lock whose thread finished releasing it when it was parked.
    waiting: bool,
}

#[derive(Debug, Clone, Copy)]
enum TimerKind {
    /// A trylock budget expired.
    TryExpire(ThreadId),
    /// A received grant was not taken within the threshold (§III-C).
    GrantTimeout {
        lcu: usize,
        addr: Addr,
        tid: ThreadId,
    },
    /// Software retry of an acquire (LCU exhaustion / nonblocking retry).
    RetryAcquire(ThreadId),
    /// An uncontended release found no LCU entry free; retry it.
    RetryRelease(UncontendedRelease),
    /// A forwarded request found a full LCU; redeliver it shortly.
    RedeliverFwd {
        core: usize,
        addr: Addr,
        tail_tid: ThreadId,
        req: Node,
    },
}

/// The Lock Control Unit backend: the paper's contribution.
///
/// One [`Lcu`] per core and one [`Lrt`] per memory controller exchange the
/// messages of [`Msg`] over the simulated network. See the crate docs for
/// the protocol walkthrough.
#[derive(Debug, Clone)]
pub struct LcuBackend {
    lcus: Vec<Lcu>,
    lrts: Vec<Lrt>,
    /// Free Lock Table per core: locks released by a local thread but not
    /// yet requested by anyone else, parked so a repeat acquire is a local
    /// hit (paper §IV-C). Maps lock → (owner-of-record, transfer count).
    /// Ordered so eviction picks a deterministic victim — a hash map here
    /// made same-seed runs diverge across processes.
    flts: Vec<BTreeMap<Addr, (ThreadId, u64)>>,
    reqs: PerThread<Req>,
    held: FxHashMap<(ThreadId, Addr), Held>,
    timers: InFlight<TimerKind>,
    wire: InFlight<Wire>,
    initialized: bool,
}

impl Default for LcuBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl LcuBackend {
    /// Creates the backend; tables are sized lazily from the machine
    /// configuration on first use.
    pub fn new() -> Self {
        LcuBackend {
            lcus: Vec::new(),
            lrts: Vec::new(),
            flts: Vec::new(),
            reqs: PerThread::new(),
            held: FxHashMap::default(),
            timers: InFlight::new(),
            wire: InFlight::new(),
            initialized: false,
        }
    }

    fn ensure_init(&mut self, m: &mut Mach) {
        if !self.initialized {
            let cfg = m.cfg();
            self.lcus = (0..m.n_cores())
                .map(|_| Lcu::new(cfg.lcu_entries))
                .collect();
            self.lrts = (0..m.n_mems())
                .map(|_| Lrt::new(cfg.lrt_entries, cfg.lrt_assoc))
                .collect();
            self.flts = (0..m.n_cores()).map(|_| BTreeMap::new()).collect();
            // An LCU run reports the LRT overflow counters even at zero.
            m.counters_mut().add("lrt_evictions", 0);
            m.counters_mut().add("lrt_overflow_hits", 0);
            self.initialized = true;
        }
    }

    fn arm(&mut self, m: &mut Mach, delay: Cycles, kind: TimerKind) {
        let token = self.timers.put(kind);
        m.set_timer(delay, token);
    }

    /// Sends `msg` over the wire as a control message.
    fn send(&mut self, m: &mut Mach, src: Ep, dst: Ep, extra: Cycles, msg: Wire) {
        let token = self.wire.put(msg);
        m.send_wire(src, dst, MsgClass::Control, extra, token);
    }

    /// Sends a protocol message from an LCU to the home LRT.
    fn send_to_lrt(&mut self, m: &mut Mach, from_core: usize, msg: Msg) {
        let home = m.home_of(msg.addr());
        let extra = m.cfg().lcu_latency;
        self.send(m, Ep::Core(from_core), Ep::Mem(home), extra, Wire::Lrt(msg));
    }

    /// Sends a protocol message from an LRT to an LCU; `penalty` carries
    /// extra processing latency (overflow-table access).
    fn lrt_to_lcu(
        &mut self,
        m: &mut Mach,
        from_mem: usize,
        to_core: usize,
        penalty: Cycles,
        msg: Msg,
    ) {
        let extra = m.cfg().lrt_latency + penalty;
        let wrapped = Wire::Lcu(ToLcu { core: to_core, msg });
        self.send(m, Ep::Mem(from_mem), Ep::Core(to_core), extra, wrapped);
    }

    /// Direct LCU→LCU transfer.
    fn lcu_to_lcu(&mut self, m: &mut Mach, from: usize, to: usize, msg: Msg) {
        let wrapped = ToLcu { core: to, msg };
        if from == to {
            // Same-core transfer (two threads sharing a core): model as a
            // local LCU operation.
            let home = m.home_of(wrapped.msg.addr());
            self.send(m, Ep::Core(from), Ep::Mem(home), 0, Wire::LoopBack(wrapped));
            return;
        }
        let extra = m.cfg().lcu_latency;
        self.send(m, Ep::Core(from), Ep::Core(to), extra, Wire::Lcu(wrapped));
    }

    /// Allocates an entry for an uncontended release: ordinary entries first,
    /// then the remote-request nonblocking entry (§III-D), which exists so
    /// remote-service operations make progress when ordinary entries are
    /// exhausted.
    fn alloc_service_entry(&mut self, core: usize, addr: Addr, tid: ThreadId, mode: Mode) -> bool {
        if self.lcus[core]
            .alloc(addr, tid, mode, EntryKind::Ordinary)
            .is_some()
        {
            return true;
        }
        self.lcus[core]
            .alloc(addr, tid, mode, EntryKind::RemoteRequest)
            .is_some()
    }

    // ----------------------------------------------------------------
    // Message and timer builders: each is built in one place
    // ----------------------------------------------------------------

    /// Sends `ReleaseToLrt` from `lcu`. `overflow` marks an overflow-mode
    /// reader, which holds no queue position.
    fn release_to_lrt(
        &mut self,
        m: &mut Mach,
        lcu: usize,
        addr: Addr,
        tid: ThreadId,
        overflow: bool,
    ) {
        let rel = Msg::ReleaseToLrt {
            addr,
            tid,
            lcu,
            overflow,
        };
        self.send_to_lrt(m, lcu, rel);
    }

    /// The LRT hands `to` the queue-head token at transfer count `cnt`.
    fn lrt_grant_head(
        &mut self,
        m: &mut Mach,
        mem: usize,
        addr: Addr,
        to: Node,
        penalty: Cycles,
        cnt: u64,
    ) {
        let g = Msg::LrtGrant {
            addr,
            tid: to.tid,
            head: true,
            overflow: false,
            cnt,
        };
        self.lrt_to_lcu(m, mem, to.lcu, penalty, g);
    }

    /// The LRT grants `to` an overflow-mode read: no queue membership, one
    /// more reader in the entry's count.
    fn lrt_grant_overflow(
        &mut self,
        m: &mut Mach,
        mem: usize,
        addr: Addr,
        to: Node,
        penalty: Cycles,
    ) {
        m.counters_mut().incr("lrt_overflow_grants");
        let g = Msg::LrtGrant {
            addr,
            tid: to.tid,
            head: false,
            overflow: true,
            cnt: 0,
        };
        self.lrt_to_lcu(m, mem, to.lcu, penalty, g);
    }

    /// Passes the queue-head token directly from the head at `from`, whose
    /// transfer count is `cnt`, to `to`. The LRT acknowledges `ack`'s entry
    /// once `to` notifies it.
    fn grant_head_token(
        &mut self,
        m: &mut Mach,
        from: usize,
        addr: Addr,
        to: Node,
        cnt: u64,
        ack: Option<(usize, ThreadId)>,
    ) {
        let g = Msg::DirectGrant {
            addr,
            tid: to.tid,
            head: true,
            cnt: cnt + 1,
            ack,
        };
        self.lcu_to_lcu(m, from, to.lcu, g);
    }

    /// Shares a read grant with the next reader `to`, without the token.
    fn grant_read_share(&mut self, m: &mut Mach, from: usize, addr: Addr, to: Node) {
        let g = Msg::DirectGrant {
            addr,
            tid: to.tid,
            head: false,
            cnt: 0,
            ack: None,
        };
        self.lcu_to_lcu(m, from, to.lcu, g);
    }

    /// Makes entry `(core, addr, tid)` the queue head at transfer count
    /// `cnt` and tells the LRT, which then acknowledges `ack`'s entry.
    fn notify_head(
        &mut self,
        m: &mut Mach,
        core: usize,
        addr: Addr,
        tid: ThreadId,
        cnt: u64,
        ack: Option<(usize, ThreadId)>,
    ) {
        let e = self.lcus[core].get_mut(addr, tid).expect("entry");
        e.head = true;
        e.cnt = cnt;
        let node = Node {
            tid,
            lcu: core,
            mode: e.mode,
            nonblocking: false,
            no_ovf: true,
        };
        let msg = Msg::HeadNotify {
            addr,
            node,
            cnt,
            ack,
        };
        self.send_to_lrt(m, core, msg);
    }

    /// The acquire spins in software; retries it after a backoff.
    fn retry_acquire_later(&mut self, m: &mut Mach, t: ThreadId) {
        let backoff = m.cfg().retry_backoff;
        self.arm(m, backoff, TimerKind::RetryAcquire(t));
    }

    /// NACKs a forwarded request: redelivers it after a backoff.
    fn redeliver_later(
        &mut self,
        m: &mut Mach,
        core: usize,
        addr: Addr,
        tail_tid: ThreadId,
        req: Node,
    ) {
        let backoff = m.cfg().retry_backoff;
        let kind = TimerKind::RedeliverFwd {
            core,
            addr,
            tail_tid,
            req,
        };
        self.arm(m, backoff, kind);
    }

    // ----------------------------------------------------------------
    // Acquire path
    // ----------------------------------------------------------------

    fn try_start_request(&mut self, m: &mut Mach, t: ThreadId) {
        let Some(req) = self.reqs.get(t).copied() else {
            return;
        };
        let Some(core) = m.core_of(t) else {
            // Thread got preempted before we could issue; re-issued on
            // reschedule via `on_thread_scheduled`.
            if let Some(r) = self.reqs.get_mut(t) {
                r.needs_reissue = true;
            }
            return;
        };
        let core = core.0 as usize;
        if let Some(r) = self.reqs.get_mut(t) {
            r.core = core;
            r.needs_reissue = false;
        }
        let (addr, mode) = (req.addr, req.mode);
        if let Some(e) = self.lcus[core].get_mut(addr, t) {
            match e.status {
                // Fast local re-acquire of a released read entry (§III-B).
                Status::RdRel
                    if mode == Mode::Read && e.mode == Mode::Read && m.cfg().lcu_fast_reacquire =>
                {
                    e.status = Status::Acq;
                    let cnt = e.cnt;
                    m.counters_mut().incr("lcu_fast_reacquires");
                    m.trace_entry_state(Ep::Core(core), addr, "Acq");
                    self.finish_grant(m, t, addr, mode, false, cnt);
                    return;
                }
                // A grant is parked here (stale or fresh).
                Status::Rcv => {
                    self.try_take(m, core, addr, t);
                    return;
                }
                // Entry busy releasing or otherwise unusable; spin in
                // software and retry.
                _ => {
                    self.retry_acquire_later(m, t);
                    return;
                }
            }
        }
        // Allocate a fresh entry.
        match self.lcus[core].alloc_for_local(addr, t, mode) {
            Some(e) => {
                e.status = Status::Issued;
                let nonblocking = e.kind != EntryKind::Ordinary;
                let node = Node {
                    tid: t,
                    lcu: core,
                    mode,
                    nonblocking,
                    no_ovf: true,
                };
                m.counters_mut().incr("lcu_requests");
                m.trace_entry_state(Ep::Core(core), addr, "Issued");
                self.send_to_lrt(m, core, Msg::Request { addr, req: node });
            }
            None => {
                // No entry of any kind: software spin, retry later (§III-D
                // guarantees the local-request entry frees eventually).
                m.counters_mut().incr("lcu_exhausted");
                self.retry_acquire_later(m, t);
            }
        }
    }

    /// Completes a grant to the local thread: bookkeeping + machine grant.
    fn finish_grant(
        &mut self,
        m: &mut Mach,
        t: ThreadId,
        addr: Addr,
        mode: Mode,
        overflow: bool,
        cnt: u64,
    ) {
        self.reqs.remove(t);
        self.held.insert(
            (t, addr),
            Held {
                mode,
                overflow,
                cnt,
            },
        );
        m.grant_lock(t, m.cfg().lcu_latency);
    }

    /// A grant sits in `(lcu, addr, tid)` with status `Rcv`; take it if the
    /// thread is present and still wants it, otherwise handle timeout /
    /// abort / migration per §III-C.
    fn try_take(&mut self, m: &mut Mach, lcu: usize, addr: Addr, tid: ThreadId) {
        let Some(e) = self.lcus[lcu].get_mut(addr, tid) else {
            return;
        };
        if e.status != Status::Rcv {
            return;
        }
        let want = self.reqs.get(tid).copied();
        let here = m.core_of(tid).map(|c| c.0 as usize) == Some(lcu) && m.is_scheduled(tid);
        match want {
            Some(req) if req.addr == addr && here => {
                // Normal take.
                e.status = Status::Acq;
                let cnt = e.cnt;
                let mode = e.mode;
                let uncontended = e.head && e.next.is_none();
                m.trace_entry_state(Ep::Core(lcu), addr, "Acq");
                if uncontended {
                    // Entry removed to leave room (§III-A case (a)); the LRT
                    // still records us as owner.
                    self.lcus[lcu].free(addr, tid);
                    m.counters_mut().incr("lcu_uncontended_takes");
                } else {
                    m.counters_mut().incr("lcu_contended_takes");
                }
                self.finish_grant(m, tid, addr, mode, false, cnt);
            }
            Some(req) if req.addr == addr && !here => {
                // Thread migrated or preempted: arm the grant timeout.
                let timeout = m.cfg().grant_timeout;
                m.counters_mut().incr("lcu_grant_waits");
                self.arm(m, timeout, TimerKind::GrantTimeout { lcu, addr, tid });
            }
            _ => {
                // No live request (trylock expired, or a duplicate entry
                // from before a migration): pass the grant through at once.
                self.pass_through(m, lcu, addr, tid);
            }
        }
    }

    /// Forwards an unwanted grant: to the next node if any, else releases
    /// to the LRT / parks it as stale.
    fn pass_through(&mut self, m: &mut Mach, lcu: usize, addr: Addr, tid: ThreadId) {
        let (head, cnt, mode, next) = {
            let Some(e) = self.lcus[lcu].get_mut(addr, tid) else {
                return;
            };
            if e.status != Status::Rcv {
                return;
            }
            // New status decided up front; messages sent after the borrow ends.
            e.status = if e.head { Status::Rel } else { Status::RdRel };
            (e.head, e.cnt, e.mode, e.next)
        };
        m.counters_mut().incr("lcu_pass_throughs");
        m.trace_entry_state(Ep::Core(lcu), addr, if head { "Rel" } else { "RdRel" });
        if head && mode == Mode::Write {
            // An aborted writer relinquishes its waiting-writer slot.
            self.send_to_lrt(m, lcu, Msg::AbortNotify { addr });
        }
        debug_assert!(head || mode == Mode::Read, "non-head writer grant");
        match (next, head) {
            (Some(n), true) => self.send_head_token(m, lcu, tid, addr, cnt, n, mode == Mode::Read),
            // Non-head read grant we do not want: behave as an
            // instantly-released intermediate reader.
            (Some(n), false) => self.grant_read_share(m, lcu, addr, n),
            (None, true) => self.release_to_lrt(m, lcu, addr, tid, false),
            // Non-head read grant, no next: parked as an instantly released
            // reader; the head token will flush the entry.
            (None, false) => {}
        }
    }

    // ----------------------------------------------------------------
    // Release path
    // ----------------------------------------------------------------

    /// Releases the lock held via entry `(lcu, addr, tid)`. The entry must
    /// be in a holding state. Queue maintenance happens off the thread's
    /// critical path.
    fn release_entry(&mut self, m: &mut Mach, lcu: usize, addr: Addr, tid: ThreadId) {
        let e = self.lcus[lcu]
            .get_mut(addr, tid)
            .expect("releasing unknown entry");
        debug_assert!(matches!(e.status, Status::Acq | Status::Rcv));
        if e.mode == Mode::Read && !e.head {
            // Intermediate reader: silent release; wait for the head token
            // (§III-B). Locally re-acquirable meanwhile.
            e.status = Status::RdRel;
            m.counters_mut().incr("lcu_rd_rel");
            m.trace_entry_state(Ep::Core(lcu), addr, "RdRel");
            return;
        }
        self.release_head(m, lcu, addr, tid);
    }

    /// Releases a head entry: direct transfer, writer handoff, or LRT
    /// release.
    fn release_head(&mut self, m: &mut Mach, lcu: usize, addr: Addr, tid: ThreadId) {
        let e = self.lcus[lcu].get_mut(addr, tid).expect("head entry");
        debug_assert!(e.head, "release_head on non-head");
        e.status = Status::Rel;
        let (cnt, from_read) = (e.cnt, e.mode == Mode::Read);
        m.trace_entry_state(Ep::Core(lcu), addr, "Rel");
        match e.next {
            Some(n) => self.send_head_token(m, lcu, tid, addr, cnt, n, from_read),
            None => {
                m.counters_mut().incr("lcu_lrt_releases");
                self.release_to_lrt(m, lcu, addr, tid, false);
            }
        }
    }

    /// Passes the queue-head token from a releasing entry to `next`,
    /// applying the overflow-reader gating: a writer that may coexist with
    /// overflow-mode readers (`!no_ovf`), or any transfer under the
    /// via-LRT ablation, is granted by the LRT once the reader count
    /// drains; everything else transfers directly LCU→LCU. The releasing
    /// entry must already be in `Rel` status; the LRT acknowledges it.
    #[allow(clippy::too_many_arguments)] // protocol message fields travel together
    fn send_head_token(
        &mut self,
        m: &mut Mach,
        lcu: usize,
        releaser: ThreadId,
        addr: Addr,
        cnt: u64,
        next: Node,
        from_read_session: bool,
    ) {
        let gated = from_read_session && next.mode == Mode::Write && !next.no_ovf;
        if gated || !m.cfg().lcu_direct_transfer {
            m.lockstat_bump(addr, "lcu_writer_handoffs");
            let msg = Msg::WriterHandoff {
                addr,
                writer: next,
                cnt: cnt + 1,
                releaser: (lcu, releaser),
            };
            self.send_to_lrt(m, lcu, msg);
        } else {
            m.lockstat_bump(addr, "lcu_direct_transfers");
            self.grant_head_token(m, lcu, addr, next, cnt, Some((lcu, releaser)));
        }
    }

    /// The one uncontended-release path (§III-A): re-allocates a service
    /// entry, makes it the releasing head and sends `ReleaseToLrt`. With no
    /// entry free it retries after a backoff. It owes a waiting thread its
    /// completion, once the message is out. Returns whether it went out now.
    fn release_uncontended(&mut self, m: &mut Mach, r: UncontendedRelease) -> bool {
        if !self.alloc_service_entry(r.core, r.addr, r.tid, r.mode) {
            let backoff = m.cfg().retry_backoff;
            self.arm(m, backoff, TimerKind::RetryRelease(r));
            return false;
        }
        let e = self.lcus[r.core]
            .get_mut(r.addr, r.tid)
            .expect("just allocated");
        e.status = Status::Rel;
        e.head = true;
        e.cnt = r.cnt;
        if r.waiting {
            m.counters_mut().incr("lcu_uncontended_releases");
        }
        self.release_to_lrt(m, r.core, r.addr, r.tid, false);
        if r.waiting {
            m.complete_release(r.tid, m.cfg().lcu_latency);
        }
        true
    }

    /// Makes a parked (FLT) release visible: releases through the LRT for
    /// the owner-of-record, exactly as an uncontended release would have.
    /// Its thread finished releasing when the lock was parked.
    fn flt_unpark_release(&mut self, m: &mut Mach, core: usize, lock: Addr) {
        let Some((tid, cnt)) = self.flts[core].remove(&lock) else {
            return;
        };
        m.counters_mut().incr("flt_unparks");
        let r = UncontendedRelease {
            tid,
            addr: lock,
            mode: Mode::Write,
            core,
            cnt,
            waiting: false,
        };
        self.release_uncontended(m, r);
    }

    // ----------------------------------------------------------------
    // LRT message handling
    // ----------------------------------------------------------------

    fn lrt_handle(&mut self, m: &mut Mach, mem: usize, msg: Msg) {
        match msg {
            Msg::Request { addr, req } => self.lrt_request(m, mem, addr, req),
            Msg::ReleaseToLrt {
                addr,
                tid,
                lcu,
                overflow,
            } => self.lrt_release(m, mem, addr, tid, lcu, overflow),
            Msg::HeadNotify {
                addr,
                node,
                cnt,
                ack,
            } => {
                let lrt = &mut self.lrts[mem];
                if let Some((e, _)) = lrt.get_mut(addr, m.counters_mut()) {
                    if cnt > e.cnt {
                        e.cnt = cnt;
                        let was_writer_wait = node.mode == Mode::Write;
                        e.head = Some(node);
                        if was_writer_wait {
                            e.waiting_writers = e.waiting_writers.saturating_sub(1);
                        }
                    }
                }
                if let Some((alcu, atid)) = ack {
                    self.lrt_to_lcu(m, mem, alcu, 0, Msg::ReleaseAck { addr, tid: atid });
                }
            }
            Msg::WriterHandoff {
                addr,
                writer,
                cnt,
                releaser,
            } => {
                let (e, res) = self.lrts[mem].entry_mut(addr, m.counters_mut());
                e.cnt = e.cnt.max(cnt);
                e.head = Some(writer);
                e.pending_writer = Some((writer, cnt));
                let penalty = overflow_penalty(m, res);
                let fire = e.reader_cnt == 0;
                if fire {
                    e.pending_writer = None;
                    e.waiting_writers = e.waiting_writers.saturating_sub(1);
                }
                self.lrt_to_lcu(
                    m,
                    mem,
                    releaser.0,
                    penalty,
                    Msg::ReleaseAck {
                        addr,
                        tid: releaser.1,
                    },
                );
                if fire {
                    m.counters_mut().incr("lrt_writer_grants");
                    let gcnt = self.lrts[mem]
                        .get_mut(addr, m.counters_mut())
                        .map(|(e, _)| e.cnt)
                        .unwrap_or(cnt);
                    self.lrt_grant_head(m, mem, addr, writer, penalty, gcnt);
                }
            }
            Msg::AbortNotify { addr } => {
                if let Some((e, _)) = self.lrts[mem].get_mut(addr, m.counters_mut()) {
                    e.waiting_writers = e.waiting_writers.saturating_sub(1);
                }
            }
            other => panic!("LRT received unexpected message {other:?}"),
        }
    }

    fn lrt_request(&mut self, m: &mut Mach, mem: usize, addr: Addr, req: Node) {
        let now = m.now();
        let reservation_timeout = m.cfg().reservation_timeout;
        let (e, res) = self.lrts[mem].entry_mut(addr, m.counters_mut());
        let penalty = overflow_penalty(m, res);
        if e.head.is_none() {
            // Lock is free (possibly with draining overflow readers or an
            // active reservation).
            if let Some((rt, _, expiry)) = e.reservation {
                if now < expiry && rt != req.tid {
                    // Reserved for someone else: everyone retries (§III-D).
                    m.counters_mut().incr("lrt_reservation_denials");
                    self.lrt_to_lcu(m, mem, req.lcu, penalty, Msg::Retry { addr, tid: req.tid });
                    return;
                }
                e.reservation = None;
            }
            if e.reader_cnt > 0 {
                // Only overflow readers hold the lock.
                match (req.mode, req.nonblocking) {
                    (Mode::Read, true) => {
                        e.reader_cnt += 1;
                        self.lrt_grant_overflow(m, mem, addr, req, penalty);
                    }
                    (Mode::Read, false) => {
                        // Join the (empty) queue as head of the read session.
                        e.head = Some(req);
                        e.tail = Some(req);
                        e.cnt += 1;
                        let gcnt = e.cnt;
                        self.lrt_grant_head(m, mem, addr, req, penalty, gcnt);
                    }
                    (Mode::Write, false) => {
                        // Writer must wait for the overflow readers.
                        e.head = Some(req);
                        e.tail = Some(req);
                        e.waiting_writers += 1;
                        e.pending_writer = Some((req, e.cnt));
                        m.counters_mut().incr("lrt_writer_gated");
                        m.trace_entry_state(Ep::Mem(mem), addr, "LrtWriterGated");
                    }
                    (Mode::Write, true) => {
                        self.deny_nonblocking(m, mem, addr, req, penalty, reservation_timeout);
                    }
                }
                return;
            }
            // Truly free: grant as (sole) head.
            e.head = Some(req);
            e.tail = Some(req);
            e.cnt += 1;
            let gcnt = e.cnt;
            m.counters_mut().incr("lrt_free_grants");
            m.trace_entry_state(Ep::Mem(mem), addr, "LrtHead");
            self.lrt_grant_head(m, mem, addr, req, penalty, gcnt);
            return;
        }
        // Lock taken with a queue (or at least an owner).
        if req.nonblocking {
            let head = e.head.expect("checked");
            let readable = req.mode == Mode::Read
                && head.mode == Mode::Read
                && e.waiting_writers == 0
                && e.pending_writer.is_none();
            if readable {
                e.reader_cnt += 1;
                self.lrt_grant_overflow(m, mem, addr, req, penalty);
            } else {
                self.deny_nonblocking(m, mem, addr, req, penalty, reservation_timeout);
            }
            return;
        }
        // Ordinary request: enqueue at the tail. Writers are stamped with
        // whether overflow readers existed — if none did, a read session
        // may transfer to them directly (the count only drains from here).
        let mut req = req;
        req.no_ovf = e.reader_cnt == 0;
        let old_tail = e.tail.expect("queue with head has tail");
        e.tail = Some(req);
        if req.mode == Mode::Write {
            e.waiting_writers += 1;
        }
        m.counters_mut().incr("lrt_forwards");
        m.trace_entry_state(Ep::Mem(mem), addr, "LrtEnqueued");
        let fwd = Msg::FwdRequest {
            addr,
            tail_tid: old_tail.tid,
            req,
        };
        self.lrt_to_lcu(m, mem, old_tail.lcu, penalty, fwd);
    }

    fn deny_nonblocking(
        &mut self,
        m: &mut Mach,
        mem: usize,
        addr: Addr,
        req: Node,
        penalty: Cycles,
        window: Cycles,
    ) {
        let now = m.now();
        let reservations_on = m.cfg().lcu_reservation;
        let (e, _) = self.lrts[mem].entry_mut(addr, m.counters_mut());
        let expired = e.reservation.is_none_or(|(_, _, exp)| exp <= now);
        if expired && reservations_on {
            e.reservation = Some((req.tid, req.lcu, now + window));
            m.counters_mut().incr("lrt_reservations");
            m.trace_entry_state(Ep::Mem(mem), addr, "LrtReserved");
        }
        m.counters_mut().incr("lrt_retries");
        self.lrt_to_lcu(m, mem, req.lcu, penalty, Msg::Retry { addr, tid: req.tid });
    }

    fn lrt_release(
        &mut self,
        m: &mut Mach,
        mem: usize,
        addr: Addr,
        tid: ThreadId,
        lcu: usize,
        overflow: bool,
    ) {
        let now = m.now();
        let (e, res) = self.lrts[mem].entry_mut(addr, m.counters_mut());
        let penalty = overflow_penalty(m, res);
        if overflow {
            debug_assert!(e.reader_cnt > 0, "overflow release with zero count");
            e.reader_cnt = e.reader_cnt.saturating_sub(1);
            m.counters_mut().incr("lrt_overflow_releases");
            if e.reader_cnt == 0 {
                if let Some((writer, wcnt)) = e.pending_writer.take() {
                    e.waiting_writers = e.waiting_writers.saturating_sub(1);
                    e.cnt = e.cnt.max(wcnt);
                    let gcnt = e.cnt;
                    m.counters_mut().incr("lrt_writer_grants");
                    self.lrt_grant_head(m, mem, addr, writer, penalty, gcnt);
                }
            }
            self.lrts[mem].remove_if_dead(addr, now);
            return;
        }
        let Some(head) = e.head else {
            panic!("release of free lock {addr} by {tid:?}");
        };
        let tail = e.tail.expect("tail");
        if head.tid == tid && head.lcu == lcu {
            if tail.tid == tid && tail.lcu == lcu {
                // Sole node: the lock becomes free.
                e.head = None;
                e.tail = None;
                m.counters_mut().incr("lrt_frees");
                m.trace_entry_state(Ep::Mem(mem), addr, "LrtFree");
                self.lrt_to_lcu(m, mem, lcu, penalty, Msg::ReleaseAck { addr, tid });
                self.lrts[mem].remove_if_dead(addr, now);
            } else {
                // Race (§III-A): a new requestor was recorded as tail while
                // this release was in flight; the releasing entry will serve
                // the forwarded request directly.
                m.counters_mut().incr("lrt_release_retries");
                self.lrt_to_lcu(m, mem, lcu, penalty, Msg::Retry { addr, tid });
            }
            return;
        }
        // Release from an LCU that is not the recorded head: a migrated
        // owner (§III-C). Forward to the head LCU; it hops along the queue
        // if needed.
        m.counters_mut().incr("lrt_remote_releases");
        let fwd = Msg::FwdRelease { addr, tid };
        self.lrt_to_lcu(m, mem, head.lcu, penalty, fwd);
    }

    // ----------------------------------------------------------------
    // LCU message handling
    // ----------------------------------------------------------------

    fn lcu_handle(&mut self, m: &mut Mach, core: usize, msg: Msg) {
        match msg {
            Msg::LrtGrant {
                addr,
                tid,
                head,
                overflow,
                cnt,
            } => {
                if overflow {
                    // Overflow-mode read grant: the nonblocking entry is
                    // freed; the thread holds without queue membership.
                    if self.lcus[core].get(addr, tid).is_some() {
                        self.lcus[core].free(addr, tid);
                    }
                    if self.reqs.get(tid).map(|r| r.addr) != Some(addr) {
                        // Trylock expired while the grant was in flight:
                        // give it straight back.
                        self.release_to_lrt(m, core, addr, tid, true);
                        return;
                    }
                    m.counters_mut().incr("lcu_overflow_takes");
                    self.finish_grant(m, tid, addr, Mode::Read, true, 0);
                    return;
                }
                if self.lcus[core].get(addr, tid).is_none() {
                    // Entry vanished (aborted + freed): the LRT granted us a
                    // lock nobody wants; the grant is dropped and the LRT
                    // entry will be repaired by the next requestor's race
                    // handling.
                    m.counters_mut().incr("lcu_orphan_grants");
                    return;
                }
                m.counters_mut().incr("lcu_lrt_grants");
                // Arrival handling is identical to a direct grant (the LRT
                // already points at us, so no acknowledgement is owed).
                self.lcu_direct_grant(m, core, addr, tid, head, cnt, None);
            }
            Msg::FwdRequest {
                addr,
                tail_tid,
                req,
            } => self.lcu_fwd_request(m, core, addr, tail_tid, req),
            // Either a nonblocking denial (entry Issued) or a release race
            // (entry Rel).
            Msg::Retry { addr, tid } => match self.lcus[core].get(addr, tid).map(|e| e.status) {
                Some(Status::Issued) => {
                    // Nonblocking request denied: free the entry and retry
                    // from software after a backoff.
                    self.lcus[core].free(addr, tid);
                    m.counters_mut().incr("lcu_nb_retries");
                    if self.reqs.contains_key(tid) {
                        self.retry_acquire_later(m, tid);
                    }
                }
                Some(Status::Rel) => {
                    // Release race: keep the entry; the forwarded request
                    // will arrive and we transfer directly.
                    m.counters_mut().incr("lcu_release_races");
                }
                Some(other) => panic!("Retry at entry in {other:?}"),
                None => {}
            },
            Msg::ReleaseAck { addr, tid } => {
                if let Some(e) = self.lcus[core].get(addr, tid) {
                    debug_assert_eq!(e.status, Status::Rel, "ack for non-releasing entry");
                    self.lcus[core].free(addr, tid);
                    m.counters_mut().incr("lcu_entry_frees");
                }
            }
            Msg::DirectGrant {
                addr,
                tid,
                head,
                cnt,
                ack,
            } => self.lcu_direct_grant(m, core, addr, tid, head, cnt, ack),
            Msg::Wait { addr, tid } => {
                if let Some(e) = self.lcus[core].get_mut(addr, tid) {
                    if e.status == Status::Issued {
                        e.status = Status::Wait;
                        m.trace_entry_state(Ep::Core(core), addr, "Wait");
                    }
                }
            }
            Msg::FwdRelease { addr, tid } => self.lcu_fwd_release(m, core, addr, tid),
            other => panic!("LCU received unexpected message {other:?}"),
        }
    }

    /// Finds which LCU holds an entry for `(addr, tid)`. Protocol messages
    /// address entries by tuple; physical delivery in this model is keyed
    /// by the same tuple, so a linear scan over cores stands in for the
    /// per-core table lookup.
    fn find_entry_core(&self, addr: Addr, tid: ThreadId) -> Option<usize> {
        self.lcus.iter().position(|l| l.get(addr, tid).is_some())
    }

    fn lcu_fwd_request(
        &mut self,
        m: &mut Mach,
        core: usize,
        addr: Addr,
        tail_tid: ThreadId,
        req: Node,
    ) {
        // A remote requestor appeared for a parked lock: unpark the
        // deferred release and transfer to the requestor directly.
        if self.flts[core]
            .get(&addr)
            .is_some_and(|&(owner, _)| owner == tail_tid)
        {
            m.counters_mut().incr("flt_fwd_unparks");
            if self.lcus[core]
                .alloc(addr, tail_tid, Mode::Write, EntryKind::Ordinary)
                .is_none()
            {
                // Table full: stay parked and NACK-redeliver.
                self.redeliver_later(m, core, addr, tail_tid, req);
                return;
            }
            let (_, cnt) = self.flts[core].remove(&addr).expect("parked");
            let e = self.lcus[core]
                .get_mut(addr, tail_tid)
                .expect("just allocated");
            e.status = Status::Rel;
            e.head = true;
            e.cnt = cnt;
            e.next = Some(req);
            self.send_head_token(m, core, tail_tid, addr, cnt, req, false);
            return;
        }
        // Locate the tail entry at the addressed LCU; if the owner took the
        // lock uncontended the entry was deallocated here and must be
        // re-allocated (§III-A case (b)).
        if self.lcus[core].get(addr, tail_tid).is_none() {
            let Some(held) = self.held.get(&(tail_tid, addr)).copied() else {
                // The owner's release is racing with this forward: its
                // ReleaseToLrt will get a Retry (the LRT already recorded
                // the new tail) and its entry will be waiting for exactly
                // this message. Redeliver until that entry exists.
                m.counters_mut().incr("lcu_fwd_orphans");
                self.redeliver_later(m, core, addr, tail_tid, req);
                return;
            };
            // Re-allocation creates a *queue node*, so only ordinary
            // entries qualify (nonblocking entries never join queues,
            // §III-D); NACK-redeliver until one frees. Releases keep making
            // progress through the remote-request entry, which frees
            // ordinary entries over time.
            if self.lcus[core]
                .alloc(addr, tail_tid, held.mode, EntryKind::Ordinary)
                .is_none()
            {
                m.counters_mut().incr("lcu_fwd_noentry");
                self.redeliver_later(m, core, addr, tail_tid, req);
                return;
            }
            let e = self.lcus[core]
                .get_mut(addr, tail_tid)
                .expect("just allocated");
            e.status = Status::Acq;
            e.head = true;
            e.cnt = held.cnt;
            m.counters_mut().incr("lcu_reallocs");
        }
        let e = self.lcus[core].get_mut(addr, tail_tid).expect("tail entry");
        if e.next.is_some() {
            // Stale forward (should not happen: the LRT serializes tail
            // updates); count and drop.
            m.counters_mut().incr("lcu_stale_forwards");
            return;
        }
        e.next = Some(req);
        let shared_read = e.mode == Mode::Read && req.mode == Mode::Read && e.read_session();
        let stale = e.status == Status::Rcv && e.stale_grant;
        let releasing = e.status == Status::Rel;
        if shared_read {
            // Concurrent reader: grant immediately (non-head).
            m.counters_mut().incr("lcu_read_shares");
            self.grant_read_share(m, core, addr, req);
        } else if releasing {
            // Release race resolution: transfer to the requestor (gated if
            // it is a writer that may coexist with overflow readers).
            let cnt = e.cnt;
            let from_read = e.mode == Mode::Read;
            m.counters_mut().incr("lcu_race_transfers");
            self.send_head_token(m, core, tail_tid, addr, cnt, req, from_read);
        } else if stale {
            // Grant parked with no taker: pass it on at once.
            self.pass_through(m, core, addr, tail_tid);
        } else {
            let w = Msg::Wait { addr, tid: req.tid };
            self.lcu_to_lcu(m, core, req.lcu, w);
        }
    }

    #[allow(clippy::too_many_arguments)] // protocol message fields travel together
    fn lcu_direct_grant(
        &mut self,
        m: &mut Mach,
        core: usize,
        addr: Addr,
        tid: ThreadId,
        head: bool,
        cnt: u64,
        ack: Option<(usize, ThreadId)>,
    ) {
        let Some(status) = self.lcus[core].get(addr, tid).map(|e| e.status) else {
            m.counters_mut().incr("lcu_orphan_grants");
            return;
        };
        match status {
            Status::Issued | Status::Wait => {
                self.lcus[core].get_mut(addr, tid).expect("entry").status = Status::Rcv;
                m.trace_entry_state(Ep::Core(core), addr, "Rcv");
                if head {
                    m.counters_mut().incr("lcu_head_notifies");
                    self.notify_head(m, core, addr, tid, cnt, ack);
                } else {
                    debug_assert!(ack.is_none());
                }
                self.propagate_read_grant(m, core, addr, tid);
                self.try_take(m, core, addr, tid);
            }
            Status::Rcv | Status::Acq => {
                // A reader that already holds (or received) the lock gets
                // the head token.
                debug_assert!(head, "duplicate non-head grant");
                m.counters_mut().incr("lcu_head_notifies");
                self.notify_head(m, core, addr, tid, cnt, ack);
                if status == Status::Rcv {
                    self.try_take(m, core, addr, tid);
                }
            }
            Status::RdRel => {
                // Token arrives at a released intermediate reader: bypass
                // it to the next node, or release to the LRT if last.
                debug_assert!(head, "non-head grant to RdRel entry");
                let next = self.lcus[core].get(addr, tid).expect("entry").next;
                m.counters_mut().incr("lcu_token_bypasses");
                let direct = m.cfg().lcu_direct_transfer;
                match next {
                    // A reader, or a writer that no overflow reader can
                    // coexist with: the token skips this entry.
                    Some(n) if n.mode == Mode::Read || (n.no_ovf && direct) => {
                        self.lcus[core].free(addr, tid);
                        self.grant_head_token(m, core, addr, n, cnt, ack);
                    }
                    // A writer the LRT must gate, or no one: become the
                    // head (acknowledging the original releaser), then hand
                    // off or, as the session's last reader, release. Our
                    // entry awaits the handoff's or the release's ack.
                    next => {
                        self.lcus[core].get_mut(addr, tid).expect("entry").status = Status::Rel;
                        self.notify_head(m, core, addr, tid, cnt, ack);
                        match next {
                            Some(n) => self.send_head_token(m, core, tid, addr, cnt, n, true),
                            None => self.release_to_lrt(m, core, addr, tid, false),
                        }
                    }
                }
            }
            Status::Rel => {
                // Grant reached an entry that is already releasing — the
                // release-race transfer already happened; drop.
                m.counters_mut().incr("lcu_grant_to_releasing");
            }
        }
    }

    /// If this reader entry holds a grant and its next is also a reader
    /// that has not been granted yet, propagate the (non-head) grant.
    fn propagate_read_grant(&mut self, m: &mut Mach, core: usize, addr: Addr, tid: ThreadId) {
        let e = self.lcus[core].get_mut(addr, tid).expect("entry");
        if e.mode != Mode::Read || !matches!(e.status, Status::Rcv | Status::Acq) {
            return;
        }
        if let Some(n) = e.next {
            if n.mode == Mode::Read {
                m.counters_mut().incr("lcu_read_propagations");
                self.grant_read_share(m, core, addr, n);
            }
        }
    }

    fn lcu_fwd_release(&mut self, m: &mut Mach, at: usize, addr: Addr, tid: ThreadId) {
        // Look at the addressed LCU first; if the entry moved (reader chain
        // traversal), fall back to locating it anywhere. In hardware the
        // message hops next-pointer by next-pointer; the tuple lookup
        // stands in for the traversal (the timing difference is a few
        // control hops on an already off-critical-path operation).
        let found = if self.lcus[at].get(addr, tid).is_some() {
            Some(at)
        } else {
            self.find_entry_core(addr, tid)
        };
        let Some(core) = found else {
            m.counters_mut().incr("lcu_remote_release_missing");
            return;
        };
        let e = self.lcus[core].get_mut(addr, tid).expect("entry");
        match e.status {
            Status::Acq | Status::Rcv => {
                // Make sure a parked Rcv becomes a real hold first.
                e.status = Status::Acq;
                m.counters_mut().incr("lcu_remote_release_served");
                self.release_entry(m, core, addr, tid);
            }
            _ => m.counters_mut().incr("lcu_remote_release_dropped"),
        }
    }
}

/// Extra LRT latency when the entry lives in the memory overflow table.
fn overflow_penalty(m: &Mach, res: Residency) -> Cycles {
    match res {
        Residency::Table => 0,
        Residency::Overflow => m.cfg().lrt_overflow_latency,
    }
}

/// An LCU-bound message with its destination core: protocol messages are
/// physically addressed to a specific LCU, which matters when a migrated
/// thread briefly has entries at two LCUs.
#[derive(Debug, Clone)]
struct ToLcu {
    core: usize,
    msg: Msg,
}

/// A wire message of the LCU protocol, kept in the backend's
/// [`InFlight`] store while the machine carries its token.
#[derive(Debug, Clone)]
enum Wire {
    /// LCU → home LRT.
    Lrt(Msg),
    /// LRT → LCU, or a direct LCU → LCU transfer.
    Lcu(ToLcu),
    /// A same-core transfer, routed through a loop via the home memory
    /// endpoint to keep using the wire abstraction.
    LoopBack(ToLcu),
}

impl LockBackend for LcuBackend {
    fn name(&self) -> &'static str {
        "lcu"
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
        assert!(
            !self.reqs.contains_key(t),
            "thread {t:?} already has an acquire outstanding"
        );
        assert!(
            !self.held.contains_key(&(t, lock)),
            "thread {t:?} re-acquiring held lock {lock}"
        );
        let core = m.core_of(t).expect("acquire from scheduled thread").0 as usize;
        // FLT fast path (§IV-C): the same thread re-acquiring a lock it
        // parked at this core takes it locally, like a biased lock.
        if let Some(&(owner, cnt)) = self.flts[core].get(&lock) {
            if owner == t && mode == Mode::Write {
                self.flts[core].remove(&lock);
                m.counters_mut().incr("flt_hits");
                self.finish_grant(m, t, lock, mode, false, cnt);
                return;
            }
            // A different local thread (or a read acquire): the parked
            // release must become visible first.
            self.flt_unpark_release(m, core, lock);
        }
        self.reqs.insert(
            t,
            Req {
                addr: lock,
                mode,
                core,
                needs_reissue: false,
            },
        );
        if let Some(budget) = try_for {
            // A degenerate trylock's single attempt still needs a request
            // round-trip; give it one retry-backoff window.
            let budget = if budget == 0 {
                m.cfg().retry_backoff
            } else {
                budget
            };
            self.arm(m, budget, TimerKind::TryExpire(t));
        }
        self.try_start_request(m, t);
    }

    fn on_release(&mut self, m: &mut Mach, t: ThreadId, lock: Addr, mode: Mode) {
        self.ensure_init(m);
        let held = self
            .held
            .remove(&(t, lock))
            .unwrap_or_else(|| panic!("{t:?} releasing {lock} it does not hold"));
        debug_assert_eq!(held.mode, mode, "release mode mismatch");
        let core = m.core_of(t).expect("release from scheduled thread").0 as usize;
        if held.overflow {
            // Overflow readers have no entry; release goes straight home.
            self.release_to_lrt(m, core, lock, t, true);
        } else if self.lcus[core].get(lock, t).is_some() {
            self.release_entry(m, core, lock, t);
        } else if self.find_entry_core(lock, t).is_some() {
            // The holding entry is on another core (we migrated while
            // holding). Send the release to the LRT, which forwards it to
            // the entry (§III-C remote release).
            m.counters_mut().incr("lcu_remote_release_sent");
            self.release_to_lrt(m, core, lock, t, false);
        } else if mode == Mode::Write && m.cfg().flt_entries > 0 {
            // FLT (§IV-C): park the uncontended write release locally.
            // The LRT keeps recording us as owner; a forwarded request
            // unparks and transfers.
            if self.flts[core].len() >= m.cfg().flt_entries {
                // Evict the lowest-addressed park by making its release
                // visible (deterministic victim selection).
                if let Some(&victim) = self.flts[core].keys().next() {
                    self.flt_unpark_release(m, core, victim);
                }
            }
            self.flts[core].insert(lock, (t, held.cnt));
            m.counters_mut().incr("flt_parks");
        } else {
            // Uncontended hold: the entry was deallocated at take time.
            // Re-allocate and release through the LRT (§III-A); that path
            // completes the release.
            let r = UncontendedRelease {
                tid: t,
                addr: lock,
                mode,
                core,
                cnt: held.cnt,
                waiting: true,
            };
            if !self.release_uncontended(m, r) {
                // No entry free, not even the remote-request one: the rel
                // instruction spins, the thread blocked in the release
                // until a retry finds an entry.
                m.counters_mut().incr("lcu_release_noentry");
            }
            return;
        }
        m.complete_release(t, m.cfg().lcu_latency);
    }

    fn on_wire(&mut self, m: &mut Mach, token: u64) {
        self.ensure_init(m);
        match self.wire.take(token) {
            Wire::Lrt(msg) => {
                let mem = m.home_of(msg.addr());
                self.lrt_handle(m, mem, msg);
            }
            // A same-core transfer bounced via the home node is handled as
            // a normal LCU message on arrival.
            Wire::Lcu(tl) | Wire::LoopBack(tl) => self.lcu_handle(m, tl.core, tl.msg),
        }
    }

    fn on_timer(&mut self, m: &mut Mach, token: u64) {
        self.ensure_init(m);
        match self.timers.take(token) {
            TimerKind::TryExpire(t) => {
                if self.reqs.remove(t).is_some() {
                    m.counters_mut().incr("lcu_try_expires");
                    // Entry cleanup is lazy: any grant that arrives for the
                    // abandoned entry passes through. If the entry is still
                    // merely Issued/Wait, it stays queued and forwards.
                    m.fail_lock(t, 0);
                }
            }
            TimerKind::GrantTimeout { lcu, addr, tid } => {
                let still_rcv = self.lcus[lcu]
                    .get(addr, tid)
                    .map(|e| e.status == Status::Rcv)
                    .unwrap_or(false);
                if !still_rcv {
                    return;
                }
                // Thread returned meanwhile?
                let here = m.core_of(tid).map(|c| c.0 as usize) == Some(lcu) && m.is_scheduled(tid);
                if here && self.reqs.get(tid).is_some_and(|r| r.addr == addr) {
                    self.try_take(m, lcu, addr, tid);
                    return;
                }
                m.counters_mut().incr("lcu_grant_timeouts");
                let has_next = self.lcus[lcu].get(addr, tid).and_then(|e| e.next).is_some();
                if has_next {
                    self.pass_through(m, lcu, addr, tid);
                    if let Some(r) = self.reqs.get_mut(tid) {
                        if r.addr == addr {
                            r.needs_reissue = true;
                        }
                    }
                } else if self.reqs.get(tid).is_some_and(|r| r.addr == addr) {
                    // Keep the grant parked for the absent thread; new
                    // requestors will flush it via the stale flag.
                    if let Some(e) = self.lcus[lcu].get_mut(addr, tid) {
                        e.stale_grant = true;
                    }
                } else {
                    // Nobody wants it: release.
                    self.pass_through(m, lcu, addr, tid);
                }
            }
            TimerKind::RetryAcquire(t) => {
                if self.reqs.contains_key(t) {
                    self.try_start_request(m, t);
                }
            }
            TimerKind::RetryRelease(r) => {
                self.release_uncontended(m, r);
            }
            TimerKind::RedeliverFwd {
                core,
                addr,
                tail_tid,
                req,
            } => {
                m.counters_mut().incr("lcu_fwd_redeliveries");
                self.lcu_fwd_request(m, core, addr, tail_tid, req);
            }
        }
    }

    fn on_thread_scheduled(&mut self, m: &mut Mach, t: ThreadId, core: CoreId) {
        self.ensure_init(m);
        let Some(req) = self.reqs.get(t).copied() else {
            return;
        };
        let core = core.0 as usize;
        if req.core == core && !req.needs_reissue {
            // Back on the same core: a parked grant may be waiting.
            if self.lcus[core].get(req.addr, t).map(|e| e.status) == Some(Status::Rcv) {
                self.try_take(m, core, req.addr, t);
            }
            return;
        }
        // Migrated (or told to re-issue): issue a fresh request from the
        // new core; stale entries elsewhere pass grants through on timeout.
        m.counters_mut().incr("lcu_reissues");
        self.try_start_request(m, t);
    }

    fn on_fault(&mut self, m: &mut Mach, fault: BackendFault) -> bool {
        self.ensure_init(m);
        match fault {
            BackendFault::FltEvict { core } => {
                // Capacity pressure: force the lowest-address parked release
                // out, exactly as a conflicting allocation would (§IV-C).
                let Some(&lock) = self.flts.get(core).and_then(|f| f.keys().next()) else {
                    return false;
                };
                m.counters_mut().incr("flt_fault_evictions");
                self.flt_unpark_release(m, core, lock);
                true
            }
        }
    }

    fn debug_state(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (i, lcu) in self.lcus.iter().enumerate() {
            for e in lcu.iter() {
                writeln!(
                    out,
                    "LCU{i}: addr={} tid={:?} mode={:?} status={:?} head={} next={:?} cnt={}",
                    e.addr, e.tid, e.mode, e.status, e.head, e.next, e.cnt
                )
                .ok();
            }
        }
        for (t, r) in self.reqs.iter() {
            writeln!(
                out,
                "req {t:?}: addr={} mode={:?} core={} reissue={}",
                r.addr, r.mode, r.core, r.needs_reissue
            )
            .ok();
        }
        for (i, flt) in self.flts.iter().enumerate() {
            for (a, (t, cnt)) in flt {
                writeln!(out, "FLT{i}: {a} parked by {t:?} cnt={cnt}").ok();
            }
        }
        for ((t, a), h) in &self.held {
            writeln!(
                out,
                "held {t:?} {a}: mode={:?} overflow={} cnt={}",
                h.mode, h.overflow, h.cnt
            )
            .ok();
        }
        for (i, lrt) in self.lrts.iter().enumerate() {
            for set in lrt.debug_sets() {
                for e in set {
                    writeln!(
                        out,
                        "LRT{i}: addr={} head={:?} tail={:?} rdr={} ww={} pw={:?} cnt={}",
                        e.addr,
                        e.head,
                        e.tail,
                        e.reader_cnt,
                        e.waiting_writers,
                        e.pending_writer,
                        e.cnt
                    )
                    .ok();
                }
            }
        }
        out
    }
}
