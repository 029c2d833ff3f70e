//! L1 cache controller.

use locksim_engine::FxHashMap;

use crate::types::{CacheId, CacheState, CacheToDir, CpuOp, DirToCache, LineAddr, ReqKind};

/// Result of presenting a CPU operation to the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOpResult {
    /// The operation completes locally (L1 hit latency).
    Hit,
    /// The operation misses; send this request to the line's home directory
    /// and wait for [`CacheAction::CpuDone`].
    Miss(ReqKind),
}

/// Output of the cache controller when handling a directory message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheAction {
    /// Send a message to the line's home directory.
    Send(CacheToDir),
    /// The blocked CPU operation for this line is now complete.
    CpuDone,
    /// The line was just invalidated by a remote writer. The machine uses
    /// this to wake threads spinning locally on the line.
    Invalidated,
    /// The line was downgraded (a remote reader appeared). Used to wake
    /// local-spin watchers that wait for *any* coherence activity.
    Downgraded,
}

#[derive(Debug, Default, Clone, Copy)]
struct Line {
    state: CacheState,
    /// CPU operation waiting for a directory response, if any.
    pending: Option<CpuOp>,
    /// An invalidation overtook the in-flight shared-data response (the
    /// directory's DataS pays DRAM latency while a later writer's Inv does
    /// not). The read still completes — it was serialized before the write
    /// — but the arriving data must not be cached.
    poisoned: bool,
    /// An Inv/Downgrade overtook our in-flight DataM. The directory
    /// serializes per line, so such a message can only belong to the
    /// transaction *after* our grant: it is applied (and acked) right after
    /// the data arrives.
    deferred: Option<DirToCache>,
}

/// One core's L1 cache controller: per-line MESI state plus at most one
/// outstanding miss per line.
///
/// See the crate docs for the protocol overview and an example.
#[derive(Debug, Clone)]
pub struct CacheCtrl {
    id: CacheId,
    lines: FxHashMap<LineAddr, Line>,
}

impl CacheCtrl {
    /// Creates an empty (all-Invalid) cache.
    pub fn new(id: CacheId) -> Self {
        CacheCtrl {
            id,
            lines: FxHashMap::default(),
        }
    }

    /// This cache's identifier.
    pub fn id(&self) -> CacheId {
        self.id
    }

    /// Current MESI state of `line` (I if never touched).
    pub fn state(&self, line: LineAddr) -> CacheState {
        self.lines.get(&line).map_or(CacheState::I, |l| l.state)
    }

    /// Presents a CPU operation. On [`CacheOpResult::Miss`] the caller must
    /// forward the request to the home directory; the operation completes
    /// when a later [`CacheCtrl::handle`] returns [`CacheAction::CpuDone`].
    ///
    /// # Panics
    ///
    /// Panics if an operation is already pending on this line — the machine
    /// issues at most one memory operation per line per thread, and the
    /// blocking directory guarantees one transaction in flight.
    pub fn cpu_op(&mut self, line: LineAddr, op: CpuOp) -> CacheOpResult {
        let entry = self.lines.entry(line).or_default();
        assert!(
            entry.pending.is_none(),
            "cache {:?}: line {line} already has a pending op",
            self.id
        );
        let hit = if op.needs_ownership() {
            if entry.state == CacheState::E {
                // Silent E -> M upgrade.
                entry.state = CacheState::M;
            }
            entry.state.writable()
        } else {
            entry.state.readable()
        };
        if hit {
            CacheOpResult::Hit
        } else {
            entry.pending = Some(op);
            CacheOpResult::Miss(if op.needs_ownership() {
                ReqKind::GetM
            } else {
                ReqKind::GetS
            })
        }
    }

    /// Handles a message from the directory, pushing follow-up actions
    /// into `out` (a caller-owned scratch vector, so the per-message hot
    /// path allocates nothing).
    ///
    /// # Panics
    ///
    /// Panics on protocol violations (e.g. data arriving with no pending
    /// request), which indicate a simulator bug.
    pub fn handle(&mut self, line: LineAddr, msg: DirToCache, out: &mut Vec<CacheAction>) {
        let _prof = locksim_trace::prof::span("coherence/cache_handle");
        let entry = self.lines.entry(line).or_default();
        match msg {
            DirToCache::DataS { exclusive } => {
                let op = entry
                    .pending
                    .take()
                    .expect("DataS with no pending operation");
                assert!(
                    !op.needs_ownership(),
                    "DataS cannot satisfy {op:?} (needs ownership)"
                );
                if entry.poisoned {
                    // The line was invalidated while this data was in
                    // flight: complete the load (it serialized before the
                    // writer) but do not cache the stale data.
                    entry.poisoned = false;
                    entry.state = CacheState::I;
                } else {
                    entry.state = if exclusive {
                        CacheState::E
                    } else {
                        CacheState::S
                    };
                }
                out.push(CacheAction::CpuDone);
            }
            DirToCache::DataM => {
                let op = entry
                    .pending
                    .take()
                    .expect("DataM with no pending operation");
                debug_assert!(op.needs_ownership());
                entry.state = CacheState::M;
                out.push(CacheAction::CpuDone);
                match entry.deferred.take() {
                    Some(DirToCache::Inv) => {
                        entry.state = CacheState::I;
                        out.push(CacheAction::Send(CacheToDir::InvAck { dirty: true }));
                        out.push(CacheAction::Invalidated);
                    }
                    Some(DirToCache::Downgrade) => {
                        entry.state = CacheState::S;
                        out.push(CacheAction::Send(CacheToDir::DowngradeAck { dirty: true }));
                        out.push(CacheAction::Downgraded);
                    }
                    Some(other) => unreachable!("deferred {other:?}"),
                    None => {}
                }
            }
            DirToCache::Inv => {
                if entry.state == CacheState::I
                    && entry.pending.is_some_and(|op| op.needs_ownership())
                {
                    // Overtook our DataM: apply after the data arrives.
                    debug_assert!(entry.deferred.is_none());
                    entry.deferred = Some(DirToCache::Inv);
                    return;
                }
                let dirty = entry.state == CacheState::M;
                if entry.state == CacheState::I && entry.pending == Some(CpuOp::Load) {
                    entry.poisoned = true;
                }
                entry.state = CacheState::I;
                // A pending request (e.g. an S->M upgrade queued at the
                // directory) stays pending: the directory will serve it
                // after the current transaction, and the eventual DataM
                // completes it.
                out.push(CacheAction::Send(CacheToDir::InvAck { dirty }));
                out.push(CacheAction::Invalidated);
            }
            DirToCache::Downgrade => {
                if entry.state == CacheState::I
                    && entry.pending.is_some_and(|op| op.needs_ownership())
                {
                    debug_assert!(entry.deferred.is_none());
                    entry.deferred = Some(DirToCache::Downgrade);
                    return;
                }
                let dirty = entry.state == CacheState::M;
                debug_assert!(
                    entry.state.writable(),
                    "Downgrade of a non-owned line ({:?})",
                    entry.state
                );
                entry.state = CacheState::S;
                out.push(CacheAction::Send(CacheToDir::DowngradeAck { dirty }));
                out.push(CacheAction::Downgraded);
            }
        }
    }

    /// Vec-returning [`CacheCtrl::handle`] wrapper for tests.
    #[cfg(test)]
    fn handle_v(&mut self, line: LineAddr, msg: DirToCache) -> Vec<CacheAction> {
        let mut out = Vec::new();
        self.handle(line, msg, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const L: LineAddr = LineAddr(0x100);

    fn cache() -> CacheCtrl {
        CacheCtrl::new(CacheId(1))
    }

    #[test]
    fn cold_load_misses_with_gets() {
        let mut c = cache();
        assert_eq!(c.cpu_op(L, CpuOp::Load), CacheOpResult::Miss(ReqKind::GetS));
        assert_eq!(c.state(L), CacheState::I);
    }

    #[test]
    fn cold_store_misses_with_getm() {
        let mut c = cache();
        assert_eq!(
            c.cpu_op(L, CpuOp::Store),
            CacheOpResult::Miss(ReqKind::GetM)
        );
    }

    #[test]
    fn data_s_completes_load_in_s_or_e() {
        let mut c = cache();
        c.cpu_op(L, CpuOp::Load);
        let acts = c.handle_v(L, DirToCache::DataS { exclusive: false });
        assert_eq!(acts, vec![CacheAction::CpuDone]);
        assert_eq!(c.state(L), CacheState::S);

        let mut c = cache();
        c.cpu_op(L, CpuOp::Load);
        c.handle_v(L, DirToCache::DataS { exclusive: true });
        assert_eq!(c.state(L), CacheState::E);
    }

    #[test]
    fn subsequent_load_hits() {
        let mut c = cache();
        c.cpu_op(L, CpuOp::Load);
        c.handle_v(L, DirToCache::DataS { exclusive: false });
        assert_eq!(c.cpu_op(L, CpuOp::Load), CacheOpResult::Hit);
    }

    #[test]
    fn e_state_silently_upgrades_on_store() {
        let mut c = cache();
        c.cpu_op(L, CpuOp::Load);
        c.handle_v(L, DirToCache::DataS { exclusive: true });
        assert_eq!(c.cpu_op(L, CpuOp::Store), CacheOpResult::Hit);
        assert_eq!(c.state(L), CacheState::M);
    }

    #[test]
    fn s_state_store_needs_upgrade() {
        let mut c = cache();
        c.cpu_op(L, CpuOp::Load);
        c.handle_v(L, DirToCache::DataS { exclusive: false });
        assert_eq!(c.cpu_op(L, CpuOp::Rmw), CacheOpResult::Miss(ReqKind::GetM));
        c.handle_v(L, DirToCache::DataM);
        assert_eq!(c.state(L), CacheState::M);
    }

    #[test]
    fn inv_from_m_acks_dirty_and_reports() {
        let mut c = cache();
        c.cpu_op(L, CpuOp::Store);
        c.handle_v(L, DirToCache::DataM);
        let acts = c.handle_v(L, DirToCache::Inv);
        assert_eq!(
            acts,
            vec![
                CacheAction::Send(CacheToDir::InvAck { dirty: true }),
                CacheAction::Invalidated
            ]
        );
        assert_eq!(c.state(L), CacheState::I);
    }

    #[test]
    fn inv_from_s_acks_clean() {
        let mut c = cache();
        c.cpu_op(L, CpuOp::Load);
        c.handle_v(L, DirToCache::DataS { exclusive: false });
        let acts = c.handle_v(L, DirToCache::Inv);
        assert_eq!(
            acts[0],
            CacheAction::Send(CacheToDir::InvAck { dirty: false })
        );
    }

    #[test]
    fn downgrade_from_m_sends_dirty_data() {
        let mut c = cache();
        c.cpu_op(L, CpuOp::Store);
        c.handle_v(L, DirToCache::DataM);
        let acts = c.handle_v(L, DirToCache::Downgrade);
        assert_eq!(
            acts,
            vec![
                CacheAction::Send(CacheToDir::DowngradeAck { dirty: true }),
                CacheAction::Downgraded
            ]
        );
        assert_eq!(c.state(L), CacheState::S);
    }

    #[test]
    fn inv_while_upgrade_pending_keeps_request_pending() {
        let mut c = cache();
        c.cpu_op(L, CpuOp::Load);
        c.handle_v(L, DirToCache::DataS { exclusive: false });
        // Upgrade queued at the directory...
        assert_eq!(
            c.cpu_op(L, CpuOp::Store),
            CacheOpResult::Miss(ReqKind::GetM)
        );
        // ...but a competing writer wins first.
        c.handle_v(L, DirToCache::Inv);
        assert_eq!(c.state(L), CacheState::I);
        // Our DataM still completes the stalled store.
        let acts = c.handle_v(L, DirToCache::DataM);
        assert_eq!(acts, vec![CacheAction::CpuDone]);
        assert_eq!(c.state(L), CacheState::M);
    }

    #[test]
    fn inv_overtaking_datam_is_deferred() {
        let mut c = cache();
        c.cpu_op(L, CpuOp::Rmw);
        // The Inv for the *next* transaction overtakes our DataM.
        assert!(
            c.handle_v(L, DirToCache::Inv).is_empty(),
            "ack must wait for data"
        );
        let acts = c.handle_v(L, DirToCache::DataM);
        assert_eq!(
            acts,
            vec![
                CacheAction::CpuDone,
                CacheAction::Send(CacheToDir::InvAck { dirty: true }),
                CacheAction::Invalidated
            ]
        );
        assert_eq!(c.state(L), CacheState::I);
    }

    #[test]
    fn downgrade_overtaking_datam_is_deferred() {
        let mut c = cache();
        c.cpu_op(L, CpuOp::Store);
        assert!(c.handle_v(L, DirToCache::Downgrade).is_empty());
        let acts = c.handle_v(L, DirToCache::DataM);
        assert_eq!(
            acts,
            vec![
                CacheAction::CpuDone,
                CacheAction::Send(CacheToDir::DowngradeAck { dirty: true }),
                CacheAction::Downgraded
            ]
        );
        assert_eq!(c.state(L), CacheState::S);
    }

    #[test]
    fn inv_overtaking_data_poisons_the_fill() {
        let mut c = cache();
        // Load misses; before the DataS arrives, a writer's Inv passes it.
        c.cpu_op(L, CpuOp::Load);
        let acts = c.handle_v(L, DirToCache::Inv);
        assert_eq!(
            acts[0],
            CacheAction::Send(CacheToDir::InvAck { dirty: false })
        );
        // The late data completes the load but is not cached.
        let acts = c.handle_v(L, DirToCache::DataS { exclusive: false });
        assert_eq!(acts, vec![CacheAction::CpuDone]);
        assert_eq!(c.state(L), CacheState::I, "stale fill must not be cached");
    }

    #[test]
    #[should_panic(expected = "pending")]
    fn double_pending_op_panics() {
        let mut c = cache();
        c.cpu_op(L, CpuOp::Load);
        c.cpu_op(L, CpuOp::Load);
    }

    #[test]
    fn independent_lines_do_not_interfere() {
        let mut c = cache();
        let l2 = LineAddr(0x200);
        c.cpu_op(L, CpuOp::Load);
        assert_eq!(
            c.cpu_op(l2, CpuOp::Store),
            CacheOpResult::Miss(ReqKind::GetM)
        );
        c.handle_v(l2, DirToCache::DataM);
        assert_eq!(c.state(l2), CacheState::M);
        assert_eq!(c.state(L), CacheState::I);
    }
}
