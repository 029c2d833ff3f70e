//! Skip list with per-node transactional objects.

use locksim_machine::Alloc;

use crate::object::{ObjId, ObjectSpace};
use crate::structures::{Op, Plan, TxStructure};

const MAX_LEVEL: usize = 16;
const NIL: usize = usize::MAX;

#[derive(Debug, Clone)]
struct Node {
    key: u64,
    obj: ObjId,
    /// next[i] = following node at level i.
    next: Vec<usize>,
}

/// A skip list whose head tower is a transactional object read by every
/// operation — the second root-congested structure of Figure 12.
#[derive(Debug)]
pub struct SkipList {
    nodes: Vec<Node>,
    free: Vec<usize>,
    /// Head tower: next[i] per level.
    head: Vec<usize>,
    head_obj: ObjId,
    level: usize,
    len: usize,
}

impl SkipList {
    /// Creates an empty list, allocating the head object.
    pub fn new(space: &mut ObjectSpace, alloc: &mut Alloc) -> Self {
        SkipList {
            nodes: Vec::new(),
            free: Vec::new(),
            head: vec![NIL; MAX_LEVEL],
            head_obj: space.alloc(alloc),
            level: 1,
            len: 0,
        }
    }

    /// The head object.
    pub fn header(&self) -> ObjId {
        self.head_obj
    }

    /// Derives a tower height from plan-time randomness (geometric, p=1/2).
    fn level_from_seed(seed: u64) -> usize {
        let mut lvl = 1;
        let mut bits = seed;
        while lvl < MAX_LEVEL && bits & 1 == 1 {
            lvl += 1;
            bits >>= 1;
        }
        lvl
    }

    fn next_of(&self, node: usize, lvl: usize) -> usize {
        if node == NIL {
            // NIL used as "head" sentinel in traversal context.
            unreachable!("next_of on NIL");
        }
        self.nodes[node].next.get(lvl).copied().unwrap_or(NIL)
    }

    /// Finds predecessors at every level. Returns `(visited_objs, preds,
    /// found_node_or_NIL)`; `preds[i] == NIL` means the head tower.
    ///
    /// Each object is visited once: keys strictly increase along the
    /// search, and every live node owns its own object (`insert`
    /// allocates one even for a recycled slot), so no dedupe is needed.
    fn search(&self, key: u64) -> (Vec<ObjId>, Vec<usize>, usize) {
        let mut visited = vec![self.head_obj];
        let mut preds = vec![NIL; MAX_LEVEL];
        let mut cur = NIL; // NIL = head
        for lvl in (0..self.level).rev() {
            loop {
                let nxt = if cur == NIL {
                    self.head[lvl]
                } else {
                    self.next_of(cur, lvl)
                };
                if nxt != NIL && self.nodes[nxt].key < key {
                    cur = nxt;
                    let obj = self.nodes[nxt].obj;
                    debug_assert!(!visited.contains(&obj), "{obj:?} visited twice");
                    visited.push(obj);
                } else {
                    break;
                }
            }
            preds[lvl] = cur;
        }
        let candidate = if cur == NIL {
            self.head[0]
        } else {
            self.next_of(cur, 0)
        };
        let found = if candidate != NIL && self.nodes[candidate].key == key {
            let obj = self.nodes[candidate].obj;
            debug_assert!(!visited.contains(&obj), "{obj:?} visited twice");
            visited.push(obj);
            candidate
        } else {
            NIL
        };
        (visited, preds, found)
    }

    fn insert(
        &mut self,
        space: &mut ObjectSpace,
        alloc: &mut Alloc,
        key: u64,
        lvl: usize,
    ) -> Vec<ObjId> {
        let (_, preds, found) = self.search(key);
        if found != NIL {
            return Vec::new();
        }
        let mut touched = Vec::new();
        let obj = space.alloc(alloc);
        let mut node = Node {
            key,
            obj,
            next: vec![NIL; lvl],
        };
        let idx = if let Some(i) = self.free.pop() {
            i
        } else {
            self.nodes.push(Node {
                key: 0,
                obj,
                next: Vec::new(),
            });
            self.nodes.len() - 1
        };
        if lvl > self.level {
            self.level = lvl;
        }
        for (l, &pred) in preds.iter().enumerate().take(lvl) {
            if pred == NIL {
                node.next[l] = self.head[l];
                self.head[l] = idx;
                if !touched.contains(&self.head_obj) {
                    touched.push(self.head_obj);
                }
            } else {
                while self.nodes[pred].next.len() <= l {
                    self.nodes[pred].next.push(NIL);
                }
                node.next[l] = self.nodes[pred].next[l];
                self.nodes[pred].next[l] = idx;
                let pobj = self.nodes[pred].obj;
                if !touched.contains(&pobj) {
                    touched.push(pobj);
                }
            }
        }
        self.nodes[idx] = node;
        self.len += 1;
        touched
    }

    fn delete(&mut self, key: u64) -> Vec<ObjId> {
        let (_, preds, found) = self.search(key);
        if found == NIL {
            return Vec::new();
        }
        let mut touched = vec![self.nodes[found].obj];
        let height = self.nodes[found].next.len();
        for (l, &pred) in preds.iter().enumerate().take(height) {
            let nxt = self.nodes[found].next[l];
            if pred == NIL {
                if self.head[l] == found {
                    self.head[l] = nxt;
                    if !touched.contains(&self.head_obj) {
                        touched.push(self.head_obj);
                    }
                }
            } else if self.nodes[pred].next.get(l) == Some(&found) {
                self.nodes[pred].next[l] = nxt;
                let pobj = self.nodes[pred].obj;
                if !touched.contains(&pobj) {
                    touched.push(pobj);
                }
            }
        }
        self.free.push(found);
        self.len -= 1;
        while self.level > 1 && self.head[self.level - 1] == NIL {
            self.level -= 1;
        }
        touched
    }
}

impl TxStructure for SkipList {
    fn plan(&self, op: Op, aux_seed: u64) -> Plan {
        let key = op.key();
        let (reads, preds, found) = self.search(key);
        let (writes, aux) = match op {
            Op::Lookup(_) => (Vec::new(), 0),
            Op::Insert(_) if found != NIL => (Vec::new(), 0),
            Op::Insert(_) => {
                let lvl = Self::level_from_seed(aux_seed);
                let mut w = Vec::new();
                for &pred in preds.iter().take(lvl) {
                    let obj = if pred == NIL {
                        self.head_obj
                    } else {
                        self.nodes[pred].obj
                    };
                    if !w.contains(&obj) {
                        w.push(obj);
                    }
                }
                (w, lvl as u64)
            }
            Op::Delete(_) if found == NIL => (Vec::new(), 0),
            Op::Delete(_) => {
                let mut w = vec![self.nodes[found].obj];
                for &pred in preds.iter().take(self.nodes[found].next.len()) {
                    let obj = if pred == NIL {
                        self.head_obj
                    } else {
                        self.nodes[pred].obj
                    };
                    if !w.contains(&obj) {
                        w.push(obj);
                    }
                }
                (w, 0)
            }
        };
        Plan { reads, writes, aux }
    }

    fn perform(
        &mut self,
        space: &mut ObjectSpace,
        alloc: &mut Alloc,
        op: Op,
        aux: u64,
    ) -> Vec<ObjId> {
        match op {
            Op::Lookup(_) => Vec::new(),
            Op::Insert(k) => self.insert(space, alloc, k, (aux.max(1) as usize).min(MAX_LEVEL)),
            Op::Delete(k) => self.delete(k),
        }
    }

    fn contains(&self, key: u64) -> bool {
        self.search(key).2 != NIL
    }

    fn len(&self) -> usize {
        self.len
    }

    fn check_invariants(&self) {
        // Level-0 keys strictly increasing; every higher-level chain is a
        // subsequence of level 0.
        let mut cur = self.head[0];
        let mut prev_key = None;
        let mut level0 = std::collections::BTreeSet::new();
        while cur != NIL {
            let k = self.nodes[cur].key;
            if let Some(p) = prev_key {
                assert!(k > p, "level-0 order violated");
            }
            prev_key = Some(k);
            level0.insert(cur);
            cur = self.nodes[cur].next[0];
        }
        assert_eq!(level0.len(), self.len, "len mismatch");
        for lvl in 1..self.level {
            let mut cur = self.head[lvl];
            let mut prev = None;
            while cur != NIL {
                assert!(level0.contains(&cur), "ghost node at level {lvl}");
                let k = self.nodes[cur].key;
                if let Some(p) = prev {
                    assert!(k > p, "level-{lvl} order violated");
                }
                prev = Some(k);
                cur = self.nodes[cur].next.get(lvl).copied().unwrap_or(NIL);
            }
        }
    }

    fn name(&self) -> &'static str {
        "skip-list"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locksim_engine::RngStream;
    use std::collections::BTreeSet;

    fn fresh() -> (SkipList, ObjectSpace, Alloc) {
        let mut alloc = Alloc::new();
        let mut space = ObjectSpace::new();
        let l = SkipList::new(&mut space, &mut alloc);
        (l, space, alloc)
    }

    #[test]
    fn basic_roundtrip() {
        let (mut l, mut s, mut a) = fresh();
        for (i, k) in [10u64, 5, 20, 15, 1].into_iter().enumerate() {
            l.perform(&mut s, &mut a, Op::Insert(k), (i as u64 % 4) + 1);
        }
        l.check_invariants();
        assert_eq!(l.len(), 5);
        assert!(l.contains(15));
        assert!(!l.contains(7));
        l.perform(&mut s, &mut a, Op::Delete(5), 0);
        l.check_invariants();
        assert!(!l.contains(5));
    }

    #[test]
    fn level_from_seed_is_geometric_ish() {
        assert_eq!(SkipList::level_from_seed(0b000), 1);
        assert_eq!(SkipList::level_from_seed(0b001), 2);
        assert_eq!(SkipList::level_from_seed(0b011), 3);
        assert_eq!(SkipList::level_from_seed(u64::MAX), MAX_LEVEL);
    }

    #[test]
    fn plan_includes_header_in_reads() {
        let (mut l, mut s, mut a) = fresh();
        for k in 0..50 {
            l.perform(&mut s, &mut a, Op::Insert(k), (k % 3) + 1);
        }
        let p = l.plan(Op::Lookup(25), 0);
        assert_eq!(p.reads[0], l.header());
    }

    #[test]
    fn matches_btreeset() {
        for case in 0..64 {
            let mut rng = RngStream::new(case, 14);
            let (mut l, mut s, mut a) = fresh();
            let mut model = BTreeSet::new();
            for _ in 0..rng.range(1, 300) {
                let kind = rng.below(3);
                let key = rng.below(64);
                match kind {
                    0 => {
                        let lvl = SkipList::level_from_seed(rng.next_u64()) as u64;
                        l.perform(&mut s, &mut a, Op::Insert(key), lvl);
                        model.insert(key);
                    }
                    1 => {
                        l.perform(&mut s, &mut a, Op::Delete(key), 0);
                        model.remove(&key);
                    }
                    _ => assert_eq!(l.contains(key), model.contains(&key), "case {case}"),
                }
                l.check_invariants();
                assert_eq!(l.len(), model.len(), "case {case}");
            }
        }
    }
}
