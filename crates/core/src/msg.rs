//! LCU ⇄ LRT ⇄ LCU protocol messages.

use locksim_machine::{Addr, Mode, ThreadId};

/// A queue-node identity: the tuple `(threadid, LCUid, R/W)` the paper
/// stores in LRT head/tail pointers and LCU `next` fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Node {
    /// Requesting thread.
    pub tid: ThreadId,
    /// LCU (core index) the request was issued from.
    pub lcu: usize,
    /// Requested mode.
    pub mode: Mode,
    /// Request came from a nonblocking LCU entry (never enqueued).
    pub nonblocking: bool,
    /// For enqueued writers: no overflow-mode readers existed when the LRT
    /// forwarded this request. Overflow grants stop once a writer waits,
    /// so the count can only drain — when this is set, a read session may
    /// hand the lock to this writer directly instead of via the LRT.
    pub no_ovf: bool,
}

/// Protocol messages. Naming follows the paper where it names them
/// (REQUEST, GRANT, WAIT, RELEASE, RETRY); the rest implement mechanisms
/// the paper describes in prose (head notification, remote release
/// forwarding, writer handoff through the LRT).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Msg {
    // ---- LCU -> LRT ----
    /// Lock request for `addr`.
    Request {
        /// Lock address.
        addr: Addr,
        /// Requesting node.
        req: Node,
    },
    /// Release reaching the LRT: uncontended release, sole-node queue
    /// release, overflow-reader release, or a release from a migrated
    /// thread's current core. It carries no mode: the LRT tells an
    /// overflow reader by `overflow` and a queue node by its identity.
    ReleaseToLrt {
        /// Lock address.
        addr: Addr,
        /// Releasing thread.
        tid: ThreadId,
        /// LCU the release was issued from.
        lcu: usize,
        /// The holder was an overflow-mode reader (not in the queue).
        overflow: bool,
    },
    /// Sent by the LCU entry that just became queue head; lets the LRT
    /// update its head pointer and acknowledge the previous head's entry
    /// deallocation (paper §III-A, Figure 5).
    HeadNotify {
        /// Lock address.
        addr: Addr,
        /// The new head node.
        node: Node,
        /// Monotonic transfer count to ignore stale notifications.
        cnt: u64,
        /// Entry to acknowledge: `(lcu, tid)` of the releaser, if any.
        ack: Option<(usize, ThreadId)>,
    },
    /// A read session's head released with a *writer* next in queue; the
    /// LRT gates the writer's grant on the overflow reader count draining.
    WriterHandoff {
        /// Lock address.
        addr: Addr,
        /// The writer to grant once safe.
        writer: Node,
        /// Transfer count.
        cnt: u64,
        /// Releaser entry to acknowledge.
        releaser: (usize, ThreadId),
    },
    /// An aborted writer passed a head grant through without taking the
    /// lock; the LRT decrements its waiting-writer count.
    AbortNotify {
        /// Lock address.
        addr: Addr,
    },

    // ---- LRT -> LCU ----
    /// Grant from the LRT: a free lock (`head = true`) or an overflow-mode
    /// read grant (`overflow = true`).
    LrtGrant {
        /// Lock address.
        addr: Addr,
        /// Thread granted.
        tid: ThreadId,
        /// Grant carries the queue-head token.
        head: bool,
        /// Overflow-mode reader grant (no queue membership).
        overflow: bool,
        /// The LRT's transfer-count generation: the new head's chain counts
        /// upward from here, so later `HeadNotify`s outrank stale ones.
        cnt: u64,
    },
    /// Request forwarded to the queue tail's LCU for enqueueing.
    FwdRequest {
        /// Lock address.
        addr: Addr,
        /// Tail thread whose entry should enqueue the requestor.
        tail_tid: ThreadId,
        /// The requestor to enqueue.
        req: Node,
    },
    /// Retry: race detected or nonblocking request denied.
    Retry {
        /// Lock address.
        addr: Addr,
        /// Thread whose request is denied.
        tid: ThreadId,
    },
    /// The LRT acknowledges a release; the entry can deallocate.
    ReleaseAck {
        /// Lock address.
        addr: Addr,
        /// Thread whose entry is acknowledged.
        tid: ThreadId,
    },

    // ---- LCU -> LCU (or LRT -> LCU for remote release) ----
    /// Direct lock transfer to a waiting entry. `head = true` passes the
    /// queue-head token; reader chains also receive non-head grants.
    DirectGrant {
        /// Lock address.
        addr: Addr,
        /// Receiving thread.
        tid: ThreadId,
        /// Head token included.
        head: bool,
        /// Transfer count (forwarded to the LRT in `HeadNotify`).
        cnt: u64,
        /// Previous head's entry to acknowledge via the LRT.
        ack: Option<(usize, ThreadId)>,
    },
    /// Enqueue confirmation from the tail to the requestor (paper's WAIT).
    Wait {
        /// Lock address.
        addr: Addr,
        /// Requesting thread now enqueued.
        tid: ThreadId,
    },
    /// A release by a migrated thread, forwarded along the queue until the
    /// LCU holding the matching entry is found (paper §III-C). The entry
    /// found knows its own mode.
    FwdRelease {
        /// Lock address.
        addr: Addr,
        /// Thread whose entry must be released.
        tid: ThreadId,
    },
}

impl Msg {
    /// The lock address this message concerns.
    pub fn addr(&self) -> Addr {
        match *self {
            Msg::Request { addr, .. }
            | Msg::ReleaseToLrt { addr, .. }
            | Msg::HeadNotify { addr, .. }
            | Msg::WriterHandoff { addr, .. }
            | Msg::AbortNotify { addr }
            | Msg::LrtGrant { addr, .. }
            | Msg::FwdRequest { addr, .. }
            | Msg::Retry { addr, .. }
            | Msg::ReleaseAck { addr, .. }
            | Msg::DirectGrant { addr, .. }
            | Msg::Wait { addr, .. }
            | Msg::FwdRelease { addr, .. } => addr,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_extraction_covers_variants() {
        let a = Addr(0x10);
        let n = Node {
            tid: ThreadId(1),
            lcu: 2,
            mode: Mode::Read,
            nonblocking: false,
            no_ovf: true,
        };
        let msgs = [
            Msg::Request { addr: a, req: n },
            Msg::LrtGrant {
                addr: a,
                tid: ThreadId(1),
                head: true,
                overflow: false,
                cnt: 0,
            },
            Msg::Retry {
                addr: a,
                tid: ThreadId(1),
            },
            Msg::AbortNotify { addr: a },
        ];
        for m in msgs {
            assert_eq!(m.addr(), a);
        }
    }
}
