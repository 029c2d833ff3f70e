//! Home directory controller.

use std::collections::VecDeque;

use locksim_engine::stats::Counters;
use locksim_engine::FxHashMap;

use crate::types::{CacheId, CacheToDir, DirId, DirToCache, LineAddr, ReqKind};

/// Output of the directory controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirAction {
    /// Destination cache.
    pub to: CacheId,
    /// Message to deliver.
    pub msg: DirToCache,
    /// The message carries a cache line (network data class).
    pub carries_data: bool,
    /// The response required a DRAM access first (add memory latency).
    pub dram: bool,
}

/// The caches sharing a line, one bit per [`CacheId`]: the machine has
/// at most 64 caches (`World::new` rejects larger configs), and a bitmask
/// changes state without allocating.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Sharers(u64);

impl Sharers {
    fn bit(c: CacheId) -> u64 {
        assert!(c.0 < 64, "cache {} exceeds the 64-sharer bitmask", c.0);
        1 << c.0
    }

    fn insert(&mut self, c: CacheId) {
        self.0 |= Self::bit(c);
    }

    fn contains(self, c: CacheId) -> bool {
        self.0 & Self::bit(c) != 0
    }

    fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// The sharers other than `c`, in ascending cache order.
    fn others(self, c: CacheId) -> impl Iterator<Item = CacheId> {
        let mut rest = self.0 & !Self::bit(c);
        std::iter::from_fn(move || {
            if rest == 0 {
                return None;
            }
            let i = rest.trailing_zeros();
            rest &= rest - 1;
            Some(CacheId(i))
        })
    }
}

/// Stable directory state of one line.
#[derive(Debug, Clone, PartialEq, Eq)]
enum DirState {
    Uncached,
    Shared(Sharers),
    Excl(CacheId),
}

#[derive(Debug, Clone)]
struct Transaction {
    requestor: CacheId,
    kind: ReqKind,
    acks_left: u32,
    dirty_seen: bool,
    /// The requestor held an S copy (upgrade: grant needs no data flit).
    req_has_copy: bool,
    /// Set of caches we are waiting on; the new Shared set is rebuilt on
    /// completion for GetS-from-Excl.
    prev_owner: Option<CacheId>,
}

#[derive(Debug, Clone)]
struct DirLine {
    state: DirState,
    busy: Option<Transaction>,
    queue: VecDeque<(CacheId, ReqKind)>,
}

impl Default for DirLine {
    fn default() -> Self {
        DirLine {
            state: DirState::Uncached,
            busy: None,
            queue: VecDeque::new(),
        }
    }
}

/// A blocking home directory: one transaction in flight per line, later
/// requests queue in arrival order (which is what serializes contended
/// lock lines and produces the hotspot behaviour of single-line locks).
///
/// See the crate docs for the protocol overview.
#[derive(Debug, Clone)]
pub struct DirCtrl {
    id: DirId,
    lines: FxHashMap<LineAddr, DirLine>,
    counters: Counters,
}

impl DirCtrl {
    /// Creates an empty directory.
    pub fn new(id: DirId) -> Self {
        DirCtrl {
            id,
            lines: FxHashMap::default(),
            counters: Counters::new(),
        }
    }

    /// This directory's identifier.
    pub fn id(&self) -> DirId {
        self.id
    }

    /// Protocol event counters (`dir_gets`, `dir_getm`, `dir_invs`, ...).
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Number of caches currently recorded as holding `line` (diagnostics).
    pub fn holders(&self, line: LineAddr) -> usize {
        match self.lines.get(&line).map(|l| &l.state) {
            None | Some(DirState::Uncached) => 0,
            Some(DirState::Shared(s)) => s.len(),
            Some(DirState::Excl(_)) => 1,
        }
    }

    /// Handles a cache→directory message, pushing responses to send into
    /// `out` (a caller-owned scratch vector, so the per-message hot path
    /// allocates nothing).
    ///
    /// # Panics
    ///
    /// Panics on protocol violations (acks outside a transaction, requests
    /// from the current owner, ...) — these indicate simulator bugs.
    pub fn handle(
        &mut self,
        line: LineAddr,
        from: CacheId,
        msg: CacheToDir,
        out: &mut Vec<DirAction>,
    ) {
        let _prof = locksim_trace::prof::span("coherence/dir_handle");
        match msg {
            CacheToDir::Req(kind) => {
                let entry = self.lines.entry(line).or_default();
                if entry.busy.is_some() {
                    self.counters.incr("dir_queued");
                }
                entry.queue.push_back((from, kind));
                self.pump(line, out);
            }
            CacheToDir::InvAck { dirty } | CacheToDir::DowngradeAck { dirty } => {
                self.ack(line, dirty, out);
            }
        }
    }

    /// Vec-returning [`DirCtrl::handle`] wrapper for tests.
    #[cfg(test)]
    fn handle_v(&mut self, line: LineAddr, from: CacheId, msg: CacheToDir) -> Vec<DirAction> {
        let mut out = Vec::new();
        self.handle(line, from, msg, &mut out);
        out
    }

    /// Serves queued requests in order until one starts a multi-step
    /// transaction (goes busy) or the queue empties.
    fn pump(&mut self, line: LineAddr, out: &mut Vec<DirAction>) {
        loop {
            let entry = self.lines.get_mut(&line).expect("line exists");
            if entry.busy.is_some() {
                break;
            }
            let Some((from, kind)) = entry.queue.pop_front() else {
                break;
            };
            self.start(line, from, kind, out);
        }
    }

    fn start(&mut self, line: LineAddr, from: CacheId, kind: ReqKind, out: &mut Vec<DirAction>) {
        let entry = self.lines.get_mut(&line).expect("line exists");
        debug_assert!(entry.busy.is_none());
        match kind {
            ReqKind::GetS => self.counters.incr("dir_gets"),
            ReqKind::GetM => self.counters.incr("dir_getm"),
        }
        match (&mut entry.state, kind) {
            (DirState::Uncached, ReqKind::GetS) => {
                entry.state = DirState::Excl(from);
                out.push(DirAction {
                    to: from,
                    msg: DirToCache::DataS { exclusive: true },
                    carries_data: true,
                    dram: true,
                });
            }
            (DirState::Uncached, ReqKind::GetM) => {
                entry.state = DirState::Excl(from);
                out.push(DirAction {
                    to: from,
                    msg: DirToCache::DataM,
                    carries_data: true,
                    dram: true,
                });
            }
            (DirState::Shared(set), ReqKind::GetS) => {
                debug_assert!(!set.contains(from), "sharer re-requesting GetS");
                set.insert(from);
                out.push(DirAction {
                    to: from,
                    msg: DirToCache::DataS { exclusive: false },
                    carries_data: true,
                    dram: true,
                });
            }
            (DirState::Shared(set), ReqKind::GetM) => {
                let req_has_copy = set.contains(from);
                let others = set.others(from).count();
                if others == 0 {
                    // Sole-sharer upgrade: grant permissions immediately.
                    entry.state = DirState::Excl(from);
                    out.push(DirAction {
                        to: from,
                        msg: DirToCache::DataM,
                        carries_data: !req_has_copy,
                        dram: !req_has_copy,
                    });
                    return;
                }
                self.counters.add("dir_invs", others as u64);
                out.extend(set.others(from).map(|to| DirAction {
                    to,
                    msg: DirToCache::Inv,
                    carries_data: false,
                    dram: false,
                }));
                entry.busy = Some(Transaction {
                    requestor: from,
                    kind,
                    acks_left: others as u32,
                    dirty_seen: false,
                    req_has_copy,
                    prev_owner: None,
                });
            }
            (DirState::Excl(owner), kind) => {
                let owner = *owner;
                assert_ne!(owner, from, "owner re-requesting {kind:?}");
                let (msg, ctr) = match kind {
                    ReqKind::GetS => (DirToCache::Downgrade, "dir_downgrades"),
                    ReqKind::GetM => (DirToCache::Inv, "dir_invs"),
                };
                self.counters.incr(ctr);
                entry.busy = Some(Transaction {
                    requestor: from,
                    kind,
                    acks_left: 1,
                    dirty_seen: false,
                    req_has_copy: false,
                    prev_owner: Some(owner),
                });
                out.push(DirAction {
                    to: owner,
                    msg,
                    carries_data: false,
                    dram: false,
                });
            }
        }
    }

    fn ack(&mut self, line: LineAddr, dirty: bool, out: &mut Vec<DirAction>) {
        let entry = self.lines.get_mut(&line).expect("ack for unknown line");
        let tx = entry.busy.as_mut().expect("ack outside transaction");
        debug_assert!(tx.acks_left > 0);
        tx.acks_left -= 1;
        tx.dirty_seen |= dirty;
        if tx.acks_left > 0 {
            return;
        }
        let tx = entry.busy.take().expect("just observed");
        // Complete the transaction.
        match tx.kind {
            ReqKind::GetS => {
                let mut set = Sharers::default();
                if let Some(owner) = tx.prev_owner {
                    set.insert(owner);
                }
                set.insert(tx.requestor);
                entry.state = DirState::Shared(set);
                out.push(DirAction {
                    to: tx.requestor,
                    msg: DirToCache::DataS { exclusive: false },
                    carries_data: true,
                    // Data came back with the owner's ack if dirty,
                    // otherwise fetched from DRAM.
                    dram: !tx.dirty_seen,
                });
            }
            ReqKind::GetM => {
                entry.state = DirState::Excl(tx.requestor);
                out.push(DirAction {
                    to: tx.requestor,
                    msg: DirToCache::DataM,
                    carries_data: !tx.req_has_copy,
                    dram: !tx.dirty_seen && !tx.req_has_copy,
                });
            }
        }
        // Serve queued requests until one goes busy.
        self.pump(line, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const L: LineAddr = LineAddr(0x80);
    const C0: CacheId = CacheId(0);
    const C1: CacheId = CacheId(1);
    const C2: CacheId = CacheId(2);

    fn dir() -> DirCtrl {
        DirCtrl::new(DirId(0))
    }

    #[test]
    fn cold_gets_grants_exclusive() {
        let mut d = dir();
        let out = d.handle_v(L, C0, CacheToDir::Req(ReqKind::GetS));
        assert_eq!(
            out,
            vec![DirAction {
                to: C0,
                msg: DirToCache::DataS { exclusive: true },
                carries_data: true,
                dram: true
            }]
        );
        assert_eq!(d.holders(L), 1);
    }

    #[test]
    fn cold_getm_grants_m() {
        let mut d = dir();
        let out = d.handle_v(L, C0, CacheToDir::Req(ReqKind::GetM));
        assert_eq!(out[0].msg, DirToCache::DataM);
        assert!(out[0].dram);
    }

    #[test]
    fn gets_on_exclusive_downgrades_owner() {
        let mut d = dir();
        d.handle_v(L, C0, CacheToDir::Req(ReqKind::GetM));
        let out = d.handle_v(L, C1, CacheToDir::Req(ReqKind::GetS));
        assert_eq!(
            out,
            vec![DirAction {
                to: C0,
                msg: DirToCache::Downgrade,
                carries_data: false,
                dram: false
            }]
        );
        // Owner acks with dirty data: requestor gets it without DRAM.
        let out = d.handle_v(L, C0, CacheToDir::DowngradeAck { dirty: true });
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].to, C1);
        assert_eq!(out[0].msg, DirToCache::DataS { exclusive: false });
        assert!(!out[0].dram);
        assert_eq!(d.holders(L), 2);
    }

    #[test]
    fn getm_on_shared_invalidates_all_other_sharers() {
        let mut d = dir();
        // Build 3 sharers: C0 exclusive-clean, downgraded by C1's GetS, then C2 joins.
        d.handle_v(L, C0, CacheToDir::Req(ReqKind::GetS));
        d.handle_v(L, C1, CacheToDir::Req(ReqKind::GetS));
        d.handle_v(L, C0, CacheToDir::DowngradeAck { dirty: false });
        d.handle_v(L, C2, CacheToDir::Req(ReqKind::GetS));
        assert_eq!(d.holders(L), 3);
        // C0 upgrades: C1 and C2 must be invalidated.
        let out = d.handle_v(L, C0, CacheToDir::Req(ReqKind::GetM));
        let targets: Vec<CacheId> = out.iter().map(|a| a.to).collect();
        assert_eq!(targets, vec![C1, C2]);
        assert!(out.iter().all(|a| a.msg == DirToCache::Inv));
        // First ack: nothing yet.
        assert!(d
            .handle_v(L, C1, CacheToDir::InvAck { dirty: false })
            .is_empty());
        // Second ack: upgrade grant without data (requestor held a copy).
        let out = d.handle_v(L, C2, CacheToDir::InvAck { dirty: false });
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].to, C0);
        assert_eq!(out[0].msg, DirToCache::DataM);
        assert!(!out[0].carries_data);
        assert_eq!(d.holders(L), 1);
    }

    #[test]
    fn getm_invalidates_sharers_in_ascending_cache_order() {
        let mut d = dir();
        let (c0, c3, c5, c7) = (CacheId(0), CacheId(3), CacheId(5), CacheId(7));
        // C5 takes the line exclusive, C0's GetS downgrades it, C3 joins.
        d.handle_v(L, c5, CacheToDir::Req(ReqKind::GetS));
        d.handle_v(L, c0, CacheToDir::Req(ReqKind::GetS));
        d.handle_v(L, c5, CacheToDir::DowngradeAck { dirty: false });
        d.handle_v(L, c3, CacheToDir::Req(ReqKind::GetS));
        assert_eq!(d.holders(L), 3);
        let out = d.handle_v(L, c7, CacheToDir::Req(ReqKind::GetM));
        let targets: Vec<CacheId> = out.iter().map(|a| a.to).collect();
        assert_eq!(targets, vec![c0, c3, c5]);
        assert!(out.iter().all(|a| a.msg == DirToCache::Inv));
    }

    #[test]
    fn sole_sharer_upgrade_is_immediate() {
        let mut d = dir();
        d.handle_v(L, C0, CacheToDir::Req(ReqKind::GetS));
        d.handle_v(L, C1, CacheToDir::Req(ReqKind::GetS));
        d.handle_v(L, C0, CacheToDir::DowngradeAck { dirty: false });
        // C0 and C1 share; C1 invalidates C0 via GetM, then C1 is sole owner.
        let out = d.handle_v(L, C1, CacheToDir::Req(ReqKind::GetM));
        assert_eq!(out[0].to, C0);
        let out = d.handle_v(L, C0, CacheToDir::InvAck { dirty: false });
        assert_eq!(out[0].msg, DirToCache::DataM);
        assert!(!out[0].carries_data, "upgrader already had the data");
    }

    #[test]
    fn requests_queue_behind_transaction() {
        let mut d = dir();
        d.handle_v(L, C0, CacheToDir::Req(ReqKind::GetM));
        // C1 wants M: Inv goes to C0.
        let out = d.handle_v(L, C1, CacheToDir::Req(ReqKind::GetM));
        assert_eq!(out[0].to, C0);
        // C2's request must queue.
        assert!(d.handle_v(L, C2, CacheToDir::Req(ReqKind::GetM)).is_empty());
        assert_eq!(d.counters().get("dir_queued"), 1);
        // C0's ack completes C1's grant AND starts C2's transaction.
        let out = d.handle_v(L, C0, CacheToDir::InvAck { dirty: true });
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].to, C1);
        assert_eq!(out[0].msg, DirToCache::DataM);
        assert!(!out[0].dram, "dirty data came from the owner");
        assert_eq!(out[1].to, C1, "C2's transaction invalidates new owner C1");
        assert_eq!(out[1].msg, DirToCache::Inv);
        // C1 acks; C2 finally gets M.
        let out = d.handle_v(L, C1, CacheToDir::InvAck { dirty: true });
        assert_eq!(out[0].to, C2);
        assert_eq!(out[0].msg, DirToCache::DataM);
    }

    #[test]
    fn getm_on_exclusive_transfers_ownership() {
        let mut d = dir();
        d.handle_v(L, C0, CacheToDir::Req(ReqKind::GetM));
        d.handle_v(L, C1, CacheToDir::Req(ReqKind::GetM));
        let out = d.handle_v(L, C0, CacheToDir::InvAck { dirty: true });
        assert_eq!(out[0].to, C1);
        assert!(out[0].carries_data);
        assert!(!out[0].dram);
        assert_eq!(d.holders(L), 1);
    }

    #[test]
    #[should_panic(expected = "owner re-requesting")]
    fn owner_rerequest_panics() {
        let mut d = dir();
        d.handle_v(L, C0, CacheToDir::Req(ReqKind::GetM));
        d.handle_v(L, C0, CacheToDir::Req(ReqKind::GetM));
    }

    #[test]
    fn counters_track_protocol_events() {
        let mut d = dir();
        d.handle_v(L, C0, CacheToDir::Req(ReqKind::GetS));
        d.handle_v(L, C1, CacheToDir::Req(ReqKind::GetM));
        d.handle_v(L, C0, CacheToDir::InvAck { dirty: false });
        assert_eq!(d.counters().get("dir_gets"), 1);
        assert_eq!(d.counters().get("dir_getm"), 1);
        assert_eq!(d.counters().get("dir_invs"), 1);
    }

    #[test]
    fn independent_lines_have_independent_transactions() {
        let mut d = dir();
        let l2 = LineAddr(0x81);
        d.handle_v(L, C0, CacheToDir::Req(ReqKind::GetM));
        let out = d.handle_v(l2, C1, CacheToDir::Req(ReqKind::GetM));
        assert_eq!(out[0].to, C1, "no interference from busy line L");
    }
}
