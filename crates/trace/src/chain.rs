//! Post-hoc causal blocking-chain analysis over trace records.
//!
//! A *blocking chain* on a lock is a run of grants where each grantee was
//! already waiting when its predecessor released — i.e. the lock was handed
//! directly from holder to blocked waiter with no idle gap in ownership.
//! Long chains are where serialized handoff latency accumulates, so the
//! longest chain per lock is the critical path the paper's direct LCU→LCU
//! transfer optimizes.
//!
//! The analyzer walks the tracer's buffer in record order (which is causal:
//! the machine appends records as it processes events) and, per lock, keeps
//! the grant node of the current holder. On a release it remembers
//! `(release time, releasing node)`; the next grant extends that node's
//! chain iff the grantee had requested at or before the release — otherwise
//! the lock sat free and a new chain starts. Concurrent reader grants join
//! the same chain link-by-link off the grant that admitted them.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::record::{TraceEvent, TraceKind};

/// One grant in a blocking chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainLink {
    /// The granted thread.
    pub thread: u32,
    /// True for a write-mode grant.
    pub write: bool,
    /// Simulated time of the grant.
    pub granted_at: u64,
    /// Cycles the thread waited for this grant.
    pub wait: u64,
}

/// The longest blocking chain reconstructed for one lock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockChain {
    /// Lock line address.
    pub lock: u64,
    /// Grants in handoff order, earliest first.
    pub links: Vec<ChainLink>,
    /// Cycles from the chain's first grant to its last.
    pub span: u64,
    /// Total wait cycles accumulated across the chain's links.
    pub total_wait: u64,
}

impl LockChain {
    /// One-line rendering, e.g.
    /// `lock 0x40: depth 3 span 1040 cy wait 960 cy  t0:w -> t1:w -> t2:w`.
    pub fn describe(&self) -> String {
        let mut out = format!(
            "lock {:#x}: depth {} span {} cy wait {} cy  ",
            self.lock,
            self.links.len(),
            self.span,
            self.total_wait
        );
        out.push_str(&self.path(" -> "));
        out
    }

    /// The handoff order as `t0:w`-style links joined by `sep`.
    pub fn path(&self, sep: &str) -> String {
        let links: Vec<String> = self
            .links
            .iter()
            .map(|l| format!("t{}:{}", l.thread, if l.write { "w" } else { "r" }))
            .collect();
        links.join(sep)
    }
}

#[derive(Debug, Clone, Copy)]
struct Node {
    link: ChainLink,
    depth: u32,
    pred: Option<usize>,
}

#[derive(Debug, Default)]
struct LockScan {
    nodes: Vec<Node>,
    /// Pending requests: thread → request time.
    req_time: BTreeMap<u32, u64>,
    /// Current holders: thread → index of their grant node.
    active: BTreeMap<u32, usize>,
    /// Most recent release while scanning: (release time, releasing node).
    last_release: Option<(u64, usize)>,
    /// Node index with the greatest depth seen so far.
    best: Option<usize>,
}

/// Reconstructs the longest blocking chain per lock from trace records
/// (oldest first, as [`crate::Tracer::events`] yields them). Locks are
/// returned in address order; locks whose history never chained (every
/// grant found the lock idle) report their deepest single grant.
pub fn blocking_chains<'a>(events: impl IntoIterator<Item = &'a TraceEvent>) -> Vec<LockChain> {
    let mut scans: BTreeMap<u64, LockScan> = BTreeMap::new();
    for e in events {
        let t = e.t.cycles();
        match e.kind {
            TraceKind::LockRequest { lock, thread, .. } => {
                scans.entry(lock).or_default().req_time.insert(thread, t);
            }
            TraceKind::LockFail { lock, thread } => {
                scans.entry(lock).or_default().req_time.remove(&thread);
            }
            TraceKind::LockGrant {
                lock,
                thread,
                write,
                wait,
            } => {
                let sc = scans.entry(lock).or_default();
                // The request time is authoritative when the request record
                // survived in the ring; otherwise derive it from the wait.
                let req_at = sc
                    .req_time
                    .remove(&thread)
                    .unwrap_or_else(|| t.saturating_sub(wait));
                let pred = match sc.last_release {
                    // Handoff: the grantee was already blocked when the
                    // previous holder released.
                    Some((rel_t, rel_node)) if req_at <= rel_t => Some(rel_node),
                    _ => None,
                };
                let depth = pred.map_or(1, |p| sc.nodes[p].depth + 1);
                sc.nodes.push(Node {
                    link: ChainLink {
                        thread,
                        write,
                        granted_at: t,
                        wait,
                    },
                    depth,
                    pred,
                });
                let ix = sc.nodes.len() - 1;
                sc.active.insert(thread, ix);
                if sc.best.is_none_or(|b| depth > sc.nodes[b].depth) {
                    sc.best = Some(ix);
                }
                // A reader group admitted together chains through the lock's
                // last release, so clearing it only after a writer grant
                // (which ends any group) keeps sibling readers at equal
                // depth rather than stacking them artificially.
                if write {
                    sc.last_release = None;
                }
            }
            TraceKind::LockRelease { lock, thread, .. } => {
                let sc = scans.entry(lock).or_default();
                if let Some(node) = sc.active.remove(&thread) {
                    sc.last_release = Some((t, node));
                }
            }
            _ => {}
        }
    }

    scans
        .into_iter()
        .filter_map(|(lock, sc)| {
            let best = sc.best?;
            let mut links = Vec::new();
            let mut cur = Some(best);
            while let Some(ix) = cur {
                links.push(sc.nodes[ix].link);
                cur = sc.nodes[ix].pred;
            }
            links.reverse();
            let span = links
                .last()
                .map_or(0, |l| l.granted_at - links[0].granted_at);
            let total_wait = links.iter().map(|l| l.wait).sum();
            Some(LockChain {
                lock,
                links,
                span,
                total_wait,
            })
        })
        .collect()
}

/// Renders a chain listing, deepest chain first (ties broken by lock
/// address via the stable sort over the address-ordered input).
pub fn render_chains(chains: &[LockChain]) -> String {
    if chains.is_empty() {
        return "no blocking chains (no lock grants in trace)\n".to_string();
    }
    let mut by_depth: Vec<&LockChain> = chains.iter().collect();
    by_depth.sort_by_key(|c| std::cmp::Reverse(c.links.len()));
    let mut out = String::from("longest blocking chains per lock:\n");
    for c in by_depth {
        let _ = writeln!(out, "  {}", c.describe());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Ep;
    use locksim_engine::Time;

    fn ev(t: u64, kind: TraceKind) -> TraceEvent {
        TraceEvent {
            t: Time::from_cycles(t),
            ep: Ep::Global,
            kind,
        }
    }

    fn req(t: u64, lock: u64, thread: u32, write: bool) -> TraceEvent {
        ev(
            t,
            TraceKind::LockRequest {
                lock,
                thread,
                write,
            },
        )
    }

    fn grant(t: u64, lock: u64, thread: u32, write: bool, wait: u64) -> TraceEvent {
        ev(
            t,
            TraceKind::LockGrant {
                lock,
                thread,
                write,
                wait,
            },
        )
    }

    fn rel(t: u64, lock: u64, thread: u32, write: bool) -> TraceEvent {
        ev(
            t,
            TraceKind::LockRelease {
                lock,
                thread,
                write,
            },
        )
    }

    #[test]
    fn three_thread_handoff_chain_reconstructs_exactly() {
        let evs = vec![
            req(0, 0x40, 0, true),
            grant(1, 0x40, 0, true, 1),
            req(10, 0x40, 1, true),
            req(20, 0x40, 2, true),
            rel(500, 0x40, 0, true),
            grant(510, 0x40, 1, true, 500),
            rel(900, 0x40, 1, true),
            grant(910, 0x40, 2, true, 890),
            rel(1200, 0x40, 2, true),
        ];
        let chains = blocking_chains(&evs);
        assert_eq!(chains.len(), 1);
        let c = &chains[0];
        assert_eq!(c.lock, 0x40);
        let threads: Vec<u32> = c.links.iter().map(|l| l.thread).collect();
        assert_eq!(threads, vec![0, 1, 2]);
        assert_eq!(c.span, 909);
        assert_eq!(c.total_wait, 1391);
        assert!(
            c.describe().contains("t0:w -> t1:w -> t2:w"),
            "{}",
            c.describe()
        );
    }

    #[test]
    fn idle_gap_breaks_the_chain() {
        let evs = vec![
            req(0, 0x40, 0, true),
            grant(1, 0x40, 0, true, 1),
            rel(100, 0x40, 0, true),
            // Thread 1 only asks after the lock went idle: no handoff.
            req(200, 0x40, 1, true),
            grant(201, 0x40, 1, true, 1),
            rel(300, 0x40, 1, true),
        ];
        let chains = blocking_chains(&evs);
        assert_eq!(chains.len(), 1);
        assert_eq!(chains[0].links.len(), 1);
    }

    #[test]
    fn failed_trylock_does_not_join_a_chain() {
        let evs = vec![
            req(0, 0x40, 0, true),
            grant(1, 0x40, 0, true, 1),
            req(10, 0x40, 1, true),
            ev(
                90,
                TraceKind::LockFail {
                    lock: 0x40,
                    thread: 1,
                },
            ),
            rel(100, 0x40, 0, true),
            // Thread 1 re-requests after the release; its old (pre-release)
            // request must not make this look like a handoff.
            req(150, 0x40, 1, true),
            grant(151, 0x40, 1, true, 1),
            rel(200, 0x40, 1, true),
        ];
        let chains = blocking_chains(&evs);
        assert_eq!(chains[0].links.len(), 1);
    }

    #[test]
    fn reader_group_members_share_depth() {
        let evs = vec![
            req(0, 0x40, 0, true),
            grant(1, 0x40, 0, true, 1),
            req(10, 0x40, 1, false),
            req(11, 0x40, 2, false),
            rel(100, 0x40, 0, true),
            grant(110, 0x40, 1, false, 100),
            grant(111, 0x40, 2, false, 100),
            rel(200, 0x40, 1, false),
            rel(201, 0x40, 2, false),
        ];
        let chains = blocking_chains(&evs);
        // Both readers chain off the writer: depth 2, not 3.
        assert_eq!(chains[0].links.len(), 2);
        assert_eq!(chains[0].links[0].thread, 0);
        assert!(!chains[0].links[1].write);
    }

    #[test]
    fn locks_tracked_independently() {
        let evs = vec![
            req(0, 0x40, 0, true),
            grant(1, 0x40, 0, true, 1),
            req(0, 0x80, 1, true),
            grant(1, 0x80, 1, true, 1),
            req(5, 0x40, 2, true),
            rel(50, 0x40, 0, true),
            grant(55, 0x40, 2, true, 50),
            rel(60, 0x80, 1, true),
            rel(90, 0x40, 2, true),
        ];
        let chains = blocking_chains(&evs);
        assert_eq!(chains.len(), 2);
        assert_eq!(chains[0].lock, 0x40);
        assert_eq!(chains[0].links.len(), 2);
        assert_eq!(chains[1].lock, 0x80);
        assert_eq!(chains[1].links.len(), 1);
    }

    #[test]
    fn render_orders_deepest_first() {
        let evs = vec![
            req(0, 0x80, 0, true),
            grant(1, 0x80, 0, true, 1),
            rel(10, 0x80, 0, true),
            req(0, 0x40, 1, true),
            grant(1, 0x40, 1, true, 1),
            req(2, 0x40, 2, true),
            rel(20, 0x40, 1, true),
            grant(25, 0x40, 2, true, 23),
            rel(40, 0x40, 2, true),
        ];
        let chains = blocking_chains(&evs);
        let text = render_chains(&chains);
        let p40 = text.find("lock 0x40").unwrap();
        let p80 = text.find("lock 0x80").unwrap();
        assert!(p40 < p80, "{text}");
    }

    #[test]
    fn migration_mid_queue_keeps_attribution_on_the_thread() {
        // Thread 1 queues behind the holder on core 1, migrates to core 3
        // mid-wait (the LCU reissues its request from the new core), and is
        // granted after the holder's release. The chain must attribute the
        // handoff to thread 1 — sched records and the endpoint's core id
        // are not part of the causal reconstruction — and the handoff test
        // must use the live (reissued) request, not the stale one.
        let evs = vec![
            req(0, 0x40, 0, true),
            grant(1, 0x40, 0, true, 1),
            TraceEvent {
                t: Time::from_cycles(10),
                ep: Ep::Thread(1),
                kind: TraceKind::LockRequest {
                    lock: 0x40,
                    thread: 1,
                    write: true,
                },
            },
            TraceEvent {
                t: Time::from_cycles(200),
                ep: Ep::Core(1),
                kind: TraceKind::SchedMigrate {
                    thread: 1,
                    from: 1,
                    to: 3,
                },
            },
            // Reissue from the destination core, still before the release.
            TraceEvent {
                t: Time::from_cycles(250),
                ep: Ep::Thread(1),
                kind: TraceKind::LockRequest {
                    lock: 0x40,
                    thread: 1,
                    write: true,
                },
            },
            TraceEvent {
                t: Time::from_cycles(2210),
                ep: Ep::Core(3),
                kind: TraceKind::SchedRun { thread: 1, core: 3 },
            },
            rel(2500, 0x40, 0, true),
            grant(2510, 0x40, 1, true, 2260),
            rel(2600, 0x40, 1, true),
        ];
        let chains = blocking_chains(&evs);
        assert_eq!(chains.len(), 1);
        let c = &chains[0];
        let threads: Vec<u32> = c.links.iter().map(|l| l.thread).collect();
        assert_eq!(threads, vec![0, 1], "handoff chains through thread 1");
        assert_eq!(c.links[1].wait, 2260);
        assert!(c.describe().contains("t0:w -> t1:w"), "{}", c.describe());
    }

    #[test]
    fn reissue_after_release_is_not_a_stale_handoff() {
        // The stale pre-migration request (t=10) predates the release, but
        // the thread abandoned it when it migrated; the live reissue lands
        // after the release, so the grant found the lock idle — no chain.
        let evs = vec![
            req(0, 0x40, 0, true),
            grant(1, 0x40, 0, true, 1),
            req(10, 0x40, 1, true),
            TraceEvent {
                t: Time::from_cycles(80),
                ep: Ep::Core(1),
                kind: TraceKind::SchedMigrate {
                    thread: 1,
                    from: 1,
                    to: 3,
                },
            },
            rel(100, 0x40, 0, true),
            // Reissue from the new core only after the holder already left.
            req(150, 0x40, 1, true),
            grant(151, 0x40, 1, true, 1),
            rel(200, 0x40, 1, true),
        ];
        let chains = blocking_chains(&evs);
        assert_eq!(
            chains[0].links.len(),
            1,
            "stale request must not fabricate a handoff: {}",
            chains[0].describe()
        );
    }

    #[test]
    fn empty_trace_renders_explanation() {
        let chains = blocking_chains(std::iter::empty());
        assert!(chains.is_empty());
        assert!(render_chains(&chains).contains("no blocking chains"));
    }
}
