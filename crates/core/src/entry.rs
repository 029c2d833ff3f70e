//! The per-core Lock Control Unit table.

use locksim_machine::{Addr, Mode, ThreadId};

use crate::msg::Node;

/// Status of an LCU entry (paper Figure 3's status values, plus the
/// releasing states described in §III-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Request sent to the LRT, no reply yet.
    Issued,
    /// Enqueued; waiting for the lock grant.
    Wait,
    /// Grant received, not yet taken by the local thread.
    Rcv,
    /// Lock taken by the local thread.
    Acq,
    /// Intermediate reader released; waiting for the head token so the
    /// queue is not broken (§III-B). Locally re-acquirable.
    RdRel,
    /// Released; awaiting the LRT acknowledgement before deallocation.
    Rel,
}

/// Hardware entry class (§III-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryKind {
    /// Normal entry; may join queues.
    Ordinary,
    /// Nonblocking entry reserved for local thread requests when the
    /// ordinary entries are exhausted; never enqueued.
    LocalRequest,
    /// Nonblocking entry reserved for serving remote releases.
    RemoteRequest,
}

/// One LCU table entry.
#[derive(Debug, Clone)]
pub struct Entry {
    /// Lock address.
    pub addr: Addr,
    /// Owning thread (entries are addressed by `(addr, tid)`).
    pub tid: ThreadId,
    /// Requested/held mode.
    pub mode: Mode,
    /// Current status.
    pub status: Status,
    /// Queue-head token.
    pub head: bool,
    /// Next node in the lock queue, if any.
    pub next: Option<Node>,
    /// Entry class.
    pub kind: EntryKind,
    /// The local thread abandoned this request (trylock expiry) or migrated
    /// away; any received grant is passed through.
    pub aborted: bool,
    /// A grant arrived but the local thread was unavailable and the
    /// timeout already fired; forward immediately on the next enqueue.
    pub stale_grant: bool,
    /// Transfer count captured from the grant that made this entry head.
    pub cnt: u64,
}

impl Entry {
    fn new(addr: Addr, tid: ThreadId, mode: Mode, kind: EntryKind) -> Self {
        Entry {
            addr,
            tid,
            mode,
            status: Status::Issued,
            head: false,
            next: None,
            kind,
            aborted: false,
            stale_grant: false,
            cnt: 0,
        }
    }

    /// Whether this entry currently participates in a read session (holds
    /// or held a read grant that has not passed on).
    pub fn read_session(&self) -> bool {
        self.mode == Mode::Read && matches!(self.status, Status::Rcv | Status::Acq | Status::RdRel)
    }
}

/// A core's LCU: a fixed-capacity table of [`Entry`]s addressed by
/// `(addr, tid)`, with `n` ordinary entries plus one local-request and one
/// remote-request nonblocking entry (§III-D).
///
/// # Example
///
/// ```
/// use locksim_core::lcu_table::{EntryKind, Lcu};
/// use locksim_machine::{Addr, Mode, ThreadId};
///
/// let mut lcu = Lcu::new(2);
/// lcu.alloc(Addr(8), ThreadId(0), Mode::Write, EntryKind::Ordinary).unwrap();
/// assert_eq!(lcu.get(Addr(8), ThreadId(0)).unwrap().tid, ThreadId(0));
/// ```
#[derive(Debug, Clone)]
pub struct Lcu {
    ordinary_cap: usize,
    entries: Vec<Entry>,
    local_req_busy: bool,
    remote_req_busy: bool,
}

impl Lcu {
    /// Creates an LCU with `ordinary_cap` ordinary entries.
    pub fn new(ordinary_cap: usize) -> Self {
        Lcu {
            ordinary_cap,
            entries: Vec::new(),
            local_req_busy: false,
            remote_req_busy: false,
        }
    }

    fn ordinary_used(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.kind == EntryKind::Ordinary)
            .count()
    }

    /// Number of live entries of any kind.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Allocates an entry of the requested kind. Returns `None` when that
    /// kind's capacity is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if an entry for `(addr, tid)` already exists.
    pub fn alloc(
        &mut self,
        addr: Addr,
        tid: ThreadId,
        mode: Mode,
        kind: EntryKind,
    ) -> Option<&mut Entry> {
        assert!(
            self.get(addr, tid).is_none(),
            "duplicate LCU entry for ({addr}, {tid:?})"
        );
        match kind {
            EntryKind::Ordinary => {
                if self.ordinary_used() >= self.ordinary_cap {
                    return None;
                }
            }
            EntryKind::LocalRequest => {
                if self.local_req_busy {
                    return None;
                }
                self.local_req_busy = true;
            }
            EntryKind::RemoteRequest => {
                if self.remote_req_busy {
                    return None;
                }
                self.remote_req_busy = true;
            }
        }
        self.entries.push(Entry::new(addr, tid, mode, kind));
        self.entries.last_mut()
    }

    /// Allocates preferring an ordinary entry, falling back to the
    /// local-request nonblocking entry. The returned entry's
    /// [`EntryKind`] tells the caller which it got.
    pub fn alloc_for_local(&mut self, addr: Addr, tid: ThreadId, mode: Mode) -> Option<&mut Entry> {
        if self.ordinary_used() < self.ordinary_cap {
            self.alloc(addr, tid, mode, EntryKind::Ordinary)
        } else {
            self.alloc(addr, tid, mode, EntryKind::LocalRequest)
        }
    }

    /// Looks up the entry for `(addr, tid)`.
    pub fn get(&self, addr: Addr, tid: ThreadId) -> Option<&Entry> {
        self.entries.iter().find(|e| e.addr == addr && e.tid == tid)
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, addr: Addr, tid: ThreadId) -> Option<&mut Entry> {
        self.entries
            .iter_mut()
            .find(|e| e.addr == addr && e.tid == tid)
    }

    /// Frees the entry for `(addr, tid)`.
    ///
    /// # Panics
    ///
    /// Panics if no such entry exists.
    pub fn free(&mut self, addr: Addr, tid: ThreadId) -> Entry {
        let pos = self
            .entries
            .iter()
            .position(|e| e.addr == addr && e.tid == tid)
            .unwrap_or_else(|| panic!("freeing unknown LCU entry ({addr}, {tid:?})"));
        let e = self.entries.swap_remove(pos);
        match e.kind {
            EntryKind::Ordinary => {}
            EntryKind::LocalRequest => self.local_req_busy = false,
            EntryKind::RemoteRequest => self.remote_req_busy = false,
        }
        e
    }

    /// Iterates all live entries.
    pub fn iter(&self) -> impl Iterator<Item = &Entry> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: Addr = Addr(0x100);
    const T0: ThreadId = ThreadId(0);
    const T1: ThreadId = ThreadId(1);

    #[test]
    fn alloc_and_get() {
        let mut l = Lcu::new(2);
        l.alloc(A, T0, Mode::Write, EntryKind::Ordinary).unwrap();
        assert!(l.get(A, T0).is_some());
        assert!(l.get(A, T1).is_none());
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn ordinary_capacity_enforced() {
        let mut l = Lcu::new(1);
        assert!(l.alloc(A, T0, Mode::Write, EntryKind::Ordinary).is_some());
        assert!(l
            .alloc(Addr(0x200), T1, Mode::Write, EntryKind::Ordinary)
            .is_none());
    }

    #[test]
    fn local_fallback_when_ordinary_full() {
        let mut l = Lcu::new(1);
        l.alloc_for_local(A, T0, Mode::Write).unwrap();
        let e = l.alloc_for_local(Addr(0x200), T1, Mode::Read).unwrap();
        assert_eq!(e.kind, EntryKind::LocalRequest);
        // Both nonblocking and ordinary exhausted now.
        assert!(l
            .alloc_for_local(Addr(0x300), ThreadId(2), Mode::Read)
            .is_none());
    }

    #[test]
    fn free_releases_capacity() {
        let mut l = Lcu::new(1);
        l.alloc(A, T0, Mode::Write, EntryKind::Ordinary).unwrap();
        l.free(A, T0);
        assert!(l.alloc(A, T1, Mode::Write, EntryKind::Ordinary).is_some());
    }

    #[test]
    fn remote_request_entry_is_singular() {
        let mut l = Lcu::new(1);
        assert!(l
            .alloc(A, T0, Mode::Write, EntryKind::RemoteRequest)
            .is_some());
        assert!(l
            .alloc(Addr(0x200), T1, Mode::Write, EntryKind::RemoteRequest)
            .is_none());
        l.free(A, T0);
        assert!(l
            .alloc(Addr(0x200), T1, Mode::Write, EntryKind::RemoteRequest)
            .is_some());
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_entry_panics() {
        let mut l = Lcu::new(2);
        l.alloc(A, T0, Mode::Write, EntryKind::Ordinary);
        l.alloc(A, T0, Mode::Read, EntryKind::Ordinary);
    }

    #[test]
    fn read_session_detection() {
        let mut l = Lcu::new(2);
        l.alloc(A, T0, Mode::Read, EntryKind::Ordinary).unwrap();
        assert!(
            !l.get(A, T0).unwrap().read_session(),
            "Issued is not a session"
        );
        l.get_mut(A, T0).unwrap().status = Status::Acq;
        assert!(l.get(A, T0).unwrap().read_session());
        l.get_mut(A, T0).unwrap().status = Status::RdRel;
        assert!(l.get(A, T0).unwrap().read_session());
    }
}
