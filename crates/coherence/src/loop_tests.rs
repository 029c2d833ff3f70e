//! Closed-loop protocol tests: several caches and one directory exchanging
//! messages through a FIFO "network", with coherence invariants checked
//! after every step. Includes property tests over random traffic.

use locksim_engine::stats::Counters;
use locksim_engine::RngStream;
use std::collections::VecDeque;

use crate::{
    CacheAction, CacheCtrl, CacheId, CacheOpResult, CacheState, CacheToDir, CpuOp, DirAction,
    DirCtrl, DirId, DirToCache, LineAddr,
};

/// In-flight message.
#[derive(Debug)]
enum Wire {
    ToDir(LineAddr, CacheId, CacheToDir),
    ToCache(LineAddr, CacheId, DirToCache),
}

struct Loop {
    caches: Vec<CacheCtrl>,
    dir: DirCtrl,
    wire: VecDeque<Wire>,
    /// Completed CPU ops per cache (in completion order).
    completions: Vec<Vec<(LineAddr, CpuOp)>>,
    /// Ops issued but not yet completed (cache, line, op).
    outstanding: Vec<(usize, LineAddr, CpuOp)>,
}

impl Loop {
    fn new(n: usize) -> Self {
        Loop {
            caches: (0..n).map(|i| CacheCtrl::new(CacheId(i as u32))).collect(),
            dir: DirCtrl::new(DirId(0)),
            wire: VecDeque::new(),
            completions: vec![Vec::new(); n],
            outstanding: Vec::new(),
        }
    }

    /// Issues a CPU op; returns false if the cache already has a pending op
    /// on that line (caller should pick something else).
    fn issue(&mut self, cache: usize, line: LineAddr, op: CpuOp) -> bool {
        if self
            .outstanding
            .iter()
            .any(|&(c, l, _)| c == cache && l == line)
        {
            return false;
        }
        match self.caches[cache].cpu_op(line, op) {
            CacheOpResult::Hit => {
                self.completions[cache].push((line, op));
            }
            CacheOpResult::Miss(kind) => {
                self.outstanding.push((cache, line, op));
                self.wire.push_back(Wire::ToDir(
                    line,
                    CacheId(cache as u32),
                    CacheToDir::Req(kind),
                ));
            }
        }
        true
    }

    fn deliver_one(&mut self) -> bool {
        let Some(msg) = self.wire.pop_front() else {
            return false;
        };
        match msg {
            Wire::ToDir(line, from, m) => {
                let mut acts = Vec::new();
                self.dir
                    .handle(line, from, m, &mut acts, &mut Counters::new());
                for act in acts {
                    let DirAction { to, msg, .. } = act;
                    self.wire.push_back(Wire::ToCache(line, to, msg));
                }
            }
            Wire::ToCache(line, to, m) => {
                let idx = to.0 as usize;
                let mut acts = Vec::new();
                self.caches[idx].handle(line, m, &mut acts);
                for act in acts {
                    match act {
                        CacheAction::Send(m) => self.wire.push_back(Wire::ToDir(line, to, m)),
                        CacheAction::CpuDone => {
                            let pos = self
                                .outstanding
                                .iter()
                                .position(|&(c, l, _)| c == idx && l == line)
                                .expect("completion without outstanding op");
                            let (_, _, op) = self.outstanding.remove(pos);
                            self.completions[idx].push((line, op));
                        }
                        CacheAction::Invalidated | CacheAction::Downgraded => {}
                    }
                }
            }
        }
        true
    }

    fn drain(&mut self) {
        let mut steps = 0;
        while self.deliver_one() {
            steps += 1;
            assert!(steps < 1_000_000, "protocol livelock");
            self.check_invariants();
        }
    }

    /// The fundamental coherence invariant: per line, at most one cache in
    /// M/E, and M/E excludes any S copy elsewhere.
    fn check_invariants(&self) {
        use std::collections::BTreeSet;
        let mut lines = BTreeSet::new();
        for c in &self.caches {
            for l in 0..64u64 {
                lines.insert(LineAddr(l));
            }
            let _ = c;
        }
        for &line in &lines {
            let mut owners = 0;
            let mut sharers = 0;
            for c in &self.caches {
                match c.state(line) {
                    CacheState::M | CacheState::E => owners += 1,
                    CacheState::S => sharers += 1,
                    CacheState::I => {}
                }
            }
            assert!(owners <= 1, "line {line}: {owners} owners");
            assert!(
                owners == 0 || sharers == 0,
                "line {line}: owner coexists with {sharers} sharers"
            );
        }
    }
}

#[test]
fn single_cache_read_then_write() {
    let mut l = Loop::new(2);
    let line = LineAddr(1);
    assert!(l.issue(0, line, CpuOp::Load));
    l.drain();
    assert_eq!(l.caches[0].state(line), CacheState::E);
    // E->M silent upgrade hits locally.
    assert!(l.issue(0, line, CpuOp::Store));
    assert_eq!(l.caches[0].state(line), CacheState::M);
    assert_eq!(l.completions[0].len(), 2);
}

#[test]
fn two_readers_share() {
    let mut l = Loop::new(2);
    let line = LineAddr(2);
    l.issue(0, line, CpuOp::Load);
    l.drain();
    l.issue(1, line, CpuOp::Load);
    l.drain();
    assert_eq!(l.caches[0].state(line), CacheState::S);
    assert_eq!(l.caches[1].state(line), CacheState::S);
}

#[test]
fn writer_invalidates_readers() {
    let mut l = Loop::new(3);
    let line = LineAddr(3);
    l.issue(0, line, CpuOp::Load);
    l.drain();
    l.issue(1, line, CpuOp::Load);
    l.drain();
    l.issue(2, line, CpuOp::Store);
    l.drain();
    assert_eq!(l.caches[0].state(line), CacheState::I);
    assert_eq!(l.caches[1].state(line), CacheState::I);
    assert_eq!(l.caches[2].state(line), CacheState::M);
}

#[test]
fn ping_pong_ownership() {
    let mut l = Loop::new(2);
    let line = LineAddr(4);
    for i in 0..10 {
        l.issue(i % 2, line, CpuOp::Rmw);
        l.drain();
        assert_eq!(l.caches[i % 2].state(line), CacheState::M);
        assert_eq!(l.caches[(i + 1) % 2].state(line), CacheState::I);
    }
}

#[test]
fn concurrent_writers_all_complete() {
    let mut l = Loop::new(8);
    let line = LineAddr(5);
    for c in 0..8 {
        l.issue(c, line, CpuOp::Store);
    }
    l.drain();
    let done: usize = l.completions.iter().map(|v| v.len()).sum();
    assert_eq!(done, 8, "every store must eventually complete");
    assert!(l.outstanding.is_empty());
}

#[test]
fn mixed_concurrent_traffic_completes() {
    let mut l = Loop::new(4);
    for c in 0..4 {
        l.issue(
            c,
            LineAddr(6),
            if c % 2 == 0 {
                CpuOp::Load
            } else {
                CpuOp::Store
            },
        );
        l.issue(c, LineAddr(7), CpuOp::Rmw);
    }
    l.drain();
    assert!(l.outstanding.is_empty());
    let done: usize = l.completions.iter().map(|v| v.len()).sum();
    assert_eq!(done, 8);
}

/// The three CPU ops, drawn uniformly.
fn random_op(rng: &mut RngStream) -> CpuOp {
    [CpuOp::Load, CpuOp::Store, CpuOp::Rmw][rng.below(3) as usize]
}

/// Random op sequences over a handful of lines: every issued op
/// completes, and the single-writer invariant holds at every step.
#[test]
fn random_traffic_is_coherent() {
    for case in 0..64 {
        let mut rng = RngStream::new(case, 1);
        let mut l = Loop::new(6);
        let mut issued = 0usize;
        for _ in 0..rng.range(1, 200) {
            let cache = rng.below(6) as usize;
            let line = LineAddr(rng.below(4));
            if l.issue(cache, line, random_op(&mut rng)) {
                issued += 1;
            }
            // Sometimes deliver a few messages to interleave traffic.
            for _ in 0..rng.below(4) {
                l.deliver_one();
                l.check_invariants();
            }
        }
        l.drain();
        assert!(l.outstanding.is_empty(), "case {case}: {:?}", l.outstanding);
        let done: usize = l.completions.iter().map(|v| v.len()).sum();
        assert_eq!(done, issued, "case {case}");
    }
}

/// After draining, the directory's holder count matches the caches'
/// actual states.
#[test]
fn directory_agrees_with_caches() {
    for case in 0..64 {
        let mut rng = RngStream::new(case, 2);
        let mut l = Loop::new(4);
        for _ in 0..rng.range(1, 80) {
            let cache = rng.below(4) as usize;
            let line = LineAddr(rng.below(3));
            l.issue(cache, line, random_op(&mut rng));
            l.drain();
        }
        for line in 0..3u64 {
            let line = LineAddr(line);
            let holders = l.caches.iter().filter(|c| c.state(line).readable()).count();
            assert_eq!(l.dir.holders(line), holders, "case {case}, line {line}");
        }
    }
}

/// Regression: a specific interleaving of 6 caches over 4 lines (found by
/// the property test above) once left an op outstanding after drain. The
/// fourth tuple element is how many single messages to deliver between
/// issues, reproducing the original partial-drain interleaving.
#[test]
fn partial_drain_interleaving_completes() {
    let ops: Vec<(usize, u64, usize, usize)> = vec![
        (0, 1, 0, 0),
        (0, 0, 0, 0),
        (0, 0, 2, 1),
        (3, 2, 1, 1),
        (1, 0, 2, 1),
        (0, 0, 2, 1),
        (4, 2, 2, 3),
        (5, 0, 2, 0),
        (0, 3, 1, 0),
        (0, 2, 1, 2),
        (3, 3, 1, 3),
        (2, 1, 1, 0),
        (3, 2, 1, 3),
        (5, 1, 0, 0),
        (3, 3, 1, 3),
        (3, 0, 1, 3),
        (1, 1, 2, 0),
        (3, 0, 0, 2),
        (2, 1, 1, 3),
        (2, 0, 2, 2),
        (5, 1, 2, 3),
        (4, 2, 1, 1),
        (0, 2, 2, 3),
        (5, 0, 0, 3),
        (1, 1, 2, 2),
        (0, 1, 2, 2),
        (2, 3, 0, 0),
        (5, 0, 0, 2),
        (3, 3, 2, 2),
        (0, 1, 0, 3),
        (3, 2, 2, 2),
        (0, 2, 1, 3),
        (4, 3, 1, 1),
        (3, 0, 0, 3),
        (2, 0, 0, 2),
        (4, 0, 2, 3),
        (5, 3, 2, 0),
        (1, 1, 1, 3),
        (3, 0, 0, 0),
        (3, 2, 0, 2),
        (5, 0, 1, 0),
        (5, 1, 0, 2),
        (5, 1, 0, 2),
        (0, 1, 0, 3),
        (4, 0, 2, 3),
        (0, 2, 0, 3),
        (0, 1, 2, 1),
        (0, 1, 1, 3),
        (4, 2, 0, 3),
        (2, 1, 1, 1),
        (4, 1, 0, 2),
        (3, 1, 0, 0),
        (2, 2, 0, 2),
        (1, 2, 0, 1),
    ];
    let mut l = Loop::new(6);
    for (cache, line, op, deliveries) in ops {
        let op = match op {
            0 => CpuOp::Load,
            1 => CpuOp::Store,
            _ => CpuOp::Rmw,
        };
        l.issue(cache, LineAddr(line), op);
        for _ in 0..deliveries {
            l.deliver_one();
        }
    }
    l.drain();
    assert!(l.outstanding.is_empty(), "ops stuck: {:?}", l.outstanding);
}
