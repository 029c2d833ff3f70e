//! Arena-based red-black tree with per-node transactional objects.

use locksim_machine::Alloc;

use crate::object::{ObjId, ObjectSpace};
use crate::structures::{Op, Plan, TxStructure};

const NIL: usize = usize::MAX;

#[derive(Debug, Clone)]
struct Node {
    key: u64,
    obj: ObjId,
    red: bool,
    l: usize,
    r: usize,
    p: usize,
}

/// A red-black tree whose nodes are transactional objects. The tree header
/// (root pointer) is itself an object — the single entry point every
/// transaction reads, which is what congests under visible-reader locking
/// (paper Figures 11–12).
#[derive(Debug)]
pub struct RbTree {
    nodes: Vec<Node>,
    free: Vec<usize>,
    root: usize,
    header: ObjId,
    len: usize,
    touched: Vec<ObjId>,
}

impl RbTree {
    /// Creates an empty tree, allocating its header object.
    pub fn new(space: &mut ObjectSpace, alloc: &mut Alloc) -> Self {
        RbTree {
            nodes: Vec::new(),
            free: Vec::new(),
            root: NIL,
            header: space.alloc(alloc),
            len: 0,
            touched: Vec::new(),
        }
    }

    /// The header object (root pointer).
    pub fn header(&self) -> ObjId {
        self.header
    }

    fn node_alloc(&mut self, space: &mut ObjectSpace, alloc: &mut Alloc, key: u64) -> usize {
        let obj = space.alloc(alloc);
        let n = Node {
            key,
            obj,
            red: true,
            l: NIL,
            r: NIL,
            p: NIL,
        };
        if let Some(idx) = self.free.pop() {
            self.nodes[idx] = n;
            idx
        } else {
            self.nodes.push(n);
            self.nodes.len() - 1
        }
    }

    fn touch(&mut self, idx: usize) {
        if idx != NIL {
            let obj = self.nodes[idx].obj;
            if !self.touched.contains(&obj) {
                self.touched.push(obj);
            }
        }
    }

    fn touch_header(&mut self) {
        if !self.touched.contains(&self.header) {
            self.touched.push(self.header);
        }
    }

    /// Search path from the root to `key` (or to the leaf where it would
    /// attach). Returns `(path_objs, node_or_NIL, parent_or_NIL)`.
    fn search(&self, key: u64) -> (Vec<ObjId>, usize, usize) {
        let mut path = vec![self.header];
        let mut cur = self.root;
        let mut parent = NIL;
        while cur != NIL {
            path.push(self.nodes[cur].obj);
            match key.cmp(&self.nodes[cur].key) {
                std::cmp::Ordering::Equal => return (path, cur, parent),
                std::cmp::Ordering::Less => {
                    parent = cur;
                    cur = self.nodes[cur].l;
                }
                std::cmp::Ordering::Greater => {
                    parent = cur;
                    cur = self.nodes[cur].r;
                }
            }
        }
        (path, NIL, parent)
    }

    fn minimum(&self, mut x: usize) -> usize {
        while self.nodes[x].l != NIL {
            x = self.nodes[x].l;
        }
        x
    }

    fn rotate_left(&mut self, x: usize) {
        let y = self.nodes[x].r;
        self.touch(x);
        self.touch(y);
        let yl = self.nodes[y].l;
        self.nodes[x].r = yl;
        if yl != NIL {
            self.nodes[yl].p = x;
            self.touch(yl);
        }
        let xp = self.nodes[x].p;
        self.nodes[y].p = xp;
        if xp == NIL {
            self.root = y;
            self.touch_header();
        } else {
            self.touch(xp);
            if self.nodes[xp].l == x {
                self.nodes[xp].l = y;
            } else {
                self.nodes[xp].r = y;
            }
        }
        self.nodes[y].l = x;
        self.nodes[x].p = y;
    }

    fn rotate_right(&mut self, x: usize) {
        let y = self.nodes[x].l;
        self.touch(x);
        self.touch(y);
        let yr = self.nodes[y].r;
        self.nodes[x].l = yr;
        if yr != NIL {
            self.nodes[yr].p = x;
            self.touch(yr);
        }
        let xp = self.nodes[x].p;
        self.nodes[y].p = xp;
        if xp == NIL {
            self.root = y;
            self.touch_header();
        } else {
            self.touch(xp);
            if self.nodes[xp].l == x {
                self.nodes[xp].l = y;
            } else {
                self.nodes[xp].r = y;
            }
        }
        self.nodes[y].r = x;
        self.nodes[x].p = y;
    }

    fn insert_fixup(&mut self, mut z: usize) {
        while self.nodes[z].p != NIL && self.nodes[self.nodes[z].p].red {
            let p = self.nodes[z].p;
            let g = self.nodes[p].p;
            if g == NIL {
                break;
            }
            if self.nodes[g].l == p {
                let u = self.nodes[g].r;
                if u != NIL && self.nodes[u].red {
                    self.nodes[p].red = false;
                    self.nodes[u].red = false;
                    self.nodes[g].red = true;
                    self.touch(p);
                    self.touch(u);
                    self.touch(g);
                    z = g;
                } else {
                    if self.nodes[p].r == z {
                        z = p;
                        self.rotate_left(z);
                    }
                    let p = self.nodes[z].p;
                    let g = self.nodes[p].p;
                    self.nodes[p].red = false;
                    self.nodes[g].red = true;
                    self.touch(p);
                    self.touch(g);
                    self.rotate_right(g);
                }
            } else {
                let u = self.nodes[g].l;
                if u != NIL && self.nodes[u].red {
                    self.nodes[p].red = false;
                    self.nodes[u].red = false;
                    self.nodes[g].red = true;
                    self.touch(p);
                    self.touch(u);
                    self.touch(g);
                    z = g;
                } else {
                    if self.nodes[p].l == z {
                        z = p;
                        self.rotate_right(z);
                    }
                    let p = self.nodes[z].p;
                    let g = self.nodes[p].p;
                    self.nodes[p].red = false;
                    self.nodes[g].red = true;
                    self.touch(p);
                    self.touch(g);
                    self.rotate_left(g);
                }
            }
        }
        if self.root != NIL && self.nodes[self.root].red {
            self.nodes[self.root].red = false;
            self.touch(self.root);
        }
    }

    fn insert(&mut self, space: &mut ObjectSpace, alloc: &mut Alloc, key: u64) -> bool {
        let (_, found, parent) = self.search(key);
        if found != NIL {
            return false;
        }
        let z = self.node_alloc(space, alloc, key);
        self.nodes[z].p = parent;
        if parent == NIL {
            self.root = z;
            self.touch_header();
        } else {
            self.touch(parent);
            if key < self.nodes[parent].key {
                self.nodes[parent].l = z;
            } else {
                self.nodes[parent].r = z;
            }
        }
        self.insert_fixup(z);
        self.len += 1;
        true
    }

    /// Replaces subtree `u` with subtree `v` (CLRS transplant).
    fn transplant(&mut self, u: usize, v: usize) {
        let up = self.nodes[u].p;
        if up == NIL {
            self.root = v;
            self.touch_header();
        } else {
            self.touch(up);
            if self.nodes[up].l == u {
                self.nodes[up].l = v;
            } else {
                self.nodes[up].r = v;
            }
        }
        if v != NIL {
            self.nodes[v].p = up;
            self.touch(v);
        }
    }

    fn delete_fixup(&mut self, mut x: usize, mut xp: usize) {
        // x may be NIL; xp tracks its parent.
        while x != self.root && (x == NIL || !self.nodes[x].red) {
            if xp == NIL {
                break;
            }
            if self.nodes[xp].l == x {
                let mut w = self.nodes[xp].r;
                if w != NIL && self.nodes[w].red {
                    self.nodes[w].red = false;
                    self.nodes[xp].red = true;
                    self.touch(w);
                    self.touch(xp);
                    self.rotate_left(xp);
                    w = self.nodes[xp].r;
                }
                if w == NIL {
                    x = xp;
                    xp = self.nodes[x].p;
                    continue;
                }
                let wl = self.nodes[w].l;
                let wr = self.nodes[w].r;
                let wl_red = wl != NIL && self.nodes[wl].red;
                let wr_red = wr != NIL && self.nodes[wr].red;
                if !wl_red && !wr_red {
                    self.nodes[w].red = true;
                    self.touch(w);
                    x = xp;
                    xp = self.nodes[x].p;
                } else {
                    if !wr_red {
                        if wl != NIL {
                            self.nodes[wl].red = false;
                            self.touch(wl);
                        }
                        self.nodes[w].red = true;
                        self.touch(w);
                        self.rotate_right(w);
                        w = self.nodes[xp].r;
                    }
                    self.nodes[w].red = self.nodes[xp].red;
                    self.nodes[xp].red = false;
                    self.touch(w);
                    self.touch(xp);
                    let wr = self.nodes[w].r;
                    if wr != NIL {
                        self.nodes[wr].red = false;
                        self.touch(wr);
                    }
                    self.rotate_left(xp);
                    x = self.root;
                    xp = NIL;
                }
            } else {
                let mut w = self.nodes[xp].l;
                if w != NIL && self.nodes[w].red {
                    self.nodes[w].red = false;
                    self.nodes[xp].red = true;
                    self.touch(w);
                    self.touch(xp);
                    self.rotate_right(xp);
                    w = self.nodes[xp].l;
                }
                if w == NIL {
                    x = xp;
                    xp = self.nodes[x].p;
                    continue;
                }
                let wl = self.nodes[w].l;
                let wr = self.nodes[w].r;
                let wl_red = wl != NIL && self.nodes[wl].red;
                let wr_red = wr != NIL && self.nodes[wr].red;
                if !wl_red && !wr_red {
                    self.nodes[w].red = true;
                    self.touch(w);
                    x = xp;
                    xp = self.nodes[x].p;
                } else {
                    if !wl_red {
                        if wr != NIL {
                            self.nodes[wr].red = false;
                            self.touch(wr);
                        }
                        self.nodes[w].red = true;
                        self.touch(w);
                        self.rotate_left(w);
                        w = self.nodes[xp].l;
                    }
                    self.nodes[w].red = self.nodes[xp].red;
                    self.nodes[xp].red = false;
                    self.touch(w);
                    self.touch(xp);
                    let wl = self.nodes[w].l;
                    if wl != NIL {
                        self.nodes[wl].red = false;
                        self.touch(wl);
                    }
                    self.rotate_right(xp);
                    x = self.root;
                    xp = NIL;
                }
            }
        }
        if x != NIL && self.nodes[x].red {
            self.nodes[x].red = false;
            self.touch(x);
        }
    }

    fn delete(&mut self, key: u64) -> bool {
        let (_, z, _) = self.search(key);
        if z == NIL {
            return false;
        }
        self.touch(z);
        let mut y = z;
        let mut y_was_red = self.nodes[y].red;
        let x;
        let xp;
        if self.nodes[z].l == NIL {
            x = self.nodes[z].r;
            xp = self.nodes[z].p;
            self.transplant(z, x);
        } else if self.nodes[z].r == NIL {
            x = self.nodes[z].l;
            xp = self.nodes[z].p;
            self.transplant(z, x);
        } else {
            y = self.minimum(self.nodes[z].r);
            self.touch(y);
            y_was_red = self.nodes[y].red;
            x = self.nodes[y].r;
            if self.nodes[y].p == z {
                xp = y;
                if x != NIL {
                    self.nodes[x].p = y;
                    self.touch(x);
                }
            } else {
                xp = self.nodes[y].p;
                self.transplant(y, x);
                let zr = self.nodes[z].r;
                self.nodes[y].r = zr;
                self.nodes[zr].p = y;
                self.touch(zr);
            }
            self.transplant(z, y);
            let zl = self.nodes[z].l;
            self.nodes[y].l = zl;
            self.nodes[zl].p = y;
            self.nodes[y].red = self.nodes[z].red;
            self.touch(zl);
        }
        if !y_was_red {
            self.delete_fixup(x, xp);
        }
        self.free.push(z);
        self.len -= 1;
        true
    }

    /// Depth of the tree (diagnostics).
    pub fn depth(&self) -> usize {
        fn go(t: &RbTree, n: usize) -> usize {
            if n == NIL {
                0
            } else {
                1 + go(t, t.nodes[n].l).max(go(t, t.nodes[n].r))
            }
        }
        go(self, self.root)
    }
}

impl TxStructure for RbTree {
    fn plan(&self, op: Op, _aux_seed: u64) -> Plan {
        let key = op.key();
        let (mut reads, found, _) = self.search(key);
        let writes = match op {
            Op::Lookup(_) => Vec::new(),
            Op::Insert(_) if found != NIL => Vec::new(),
            Op::Insert(_) => {
                // Insertion neighbourhood: the tail of the path (parent,
                // grandparent, uncle-adjacent ancestors).
                let n = reads.len();
                reads[n.saturating_sub(4)..].to_vec()
            }
            Op::Delete(_) if found == NIL => Vec::new(),
            Op::Delete(_) => {
                // Extend the read path with the successor walk.
                if self.nodes[found].l != NIL && self.nodes[found].r != NIL {
                    let mut cur = self.nodes[found].r;
                    while cur != NIL {
                        reads.push(self.nodes[cur].obj);
                        cur = self.nodes[cur].l;
                    }
                }
                let n = reads.len();
                reads[n.saturating_sub(4)..].to_vec()
            }
        };
        Plan {
            reads,
            writes,
            aux: 0,
        }
    }

    fn perform(
        &mut self,
        space: &mut ObjectSpace,
        alloc: &mut Alloc,
        op: Op,
        _aux: u64,
    ) -> Vec<ObjId> {
        self.touched.clear();
        match op {
            Op::Lookup(_) => {}
            Op::Insert(k) => {
                self.insert(space, alloc, k);
            }
            Op::Delete(k) => {
                self.delete(k);
            }
        }
        std::mem::take(&mut self.touched)
    }

    fn contains(&self, key: u64) -> bool {
        self.search(key).1 != NIL
    }

    fn len(&self) -> usize {
        self.len
    }

    fn check_invariants(&self) {
        // BST order, no red-red edges, uniform black height.
        fn go(t: &RbTree, n: usize, lo: Option<u64>, hi: Option<u64>) -> usize {
            if n == NIL {
                return 1;
            }
            let node = &t.nodes[n];
            if let Some(lo) = lo {
                assert!(node.key > lo, "BST order violated");
            }
            if let Some(hi) = hi {
                assert!(node.key < hi, "BST order violated");
            }
            if node.red {
                for c in [node.l, node.r] {
                    assert!(c == NIL || !t.nodes[c].red, "red-red violation");
                }
            }
            if node.l != NIL {
                assert_eq!(t.nodes[node.l].p, n, "parent pointer broken");
            }
            if node.r != NIL {
                assert_eq!(t.nodes[node.r].p, n, "parent pointer broken");
            }
            let bl = go(t, node.l, lo, Some(node.key));
            let br = go(t, node.r, Some(node.key), hi);
            assert_eq!(bl, br, "black height mismatch");
            bl + usize::from(!node.red)
        }
        if self.root != NIL {
            assert!(!self.nodes[self.root].red, "red root");
            assert_eq!(self.nodes[self.root].p, NIL);
            go(self, self.root, None, None);
        }
    }

    fn name(&self) -> &'static str {
        "rb-tree"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locksim_engine::RngStream;
    use std::collections::BTreeSet;

    fn fresh() -> (RbTree, ObjectSpace, Alloc) {
        let mut alloc = Alloc::new();
        let mut space = ObjectSpace::new();
        let t = RbTree::new(&mut space, &mut alloc);
        (t, space, alloc)
    }

    #[test]
    fn insert_lookup_delete_roundtrip() {
        let (mut t, mut s, mut a) = fresh();
        for k in [5u64, 3, 8, 1, 4, 7, 9] {
            t.perform(&mut s, &mut a, Op::Insert(k), 0);
        }
        t.check_invariants();
        assert_eq!(t.len(), 7);
        assert!(t.contains(4));
        assert!(!t.contains(6));
        t.perform(&mut s, &mut a, Op::Delete(3), 0);
        t.check_invariants();
        assert!(!t.contains(3));
        assert_eq!(t.len(), 6);
    }

    #[test]
    fn duplicate_insert_is_noop() {
        let (mut t, mut s, mut a) = fresh();
        t.perform(&mut s, &mut a, Op::Insert(1), 0);
        let touched = t.perform(&mut s, &mut a, Op::Insert(1), 0);
        assert!(touched.is_empty());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn delete_missing_is_noop() {
        let (mut t, mut s, mut a) = fresh();
        t.perform(&mut s, &mut a, Op::Insert(1), 0);
        assert!(t.perform(&mut s, &mut a, Op::Delete(9), 0).is_empty());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn plan_reads_start_at_header() {
        let (mut t, mut s, mut a) = fresh();
        for k in 0..32 {
            t.perform(&mut s, &mut a, Op::Insert(k), 0);
        }
        let p = t.plan(Op::Lookup(17), 0);
        assert_eq!(p.reads[0], t.header());
        assert!(p.writes.is_empty());
        let p = t.plan(Op::Insert(100), 0);
        assert!(!p.writes.is_empty());
    }

    #[test]
    fn tree_stays_balanced() {
        let (mut t, mut s, mut a) = fresh();
        for k in 0..1024u64 {
            t.perform(&mut s, &mut a, Op::Insert(k), 0);
        }
        t.check_invariants();
        // RB depth bound: 2*log2(n+1) = 20.
        assert!(t.depth() <= 20, "depth {} too large", t.depth());
    }

    #[test]
    fn matches_btreeset() {
        for case in 0..64 {
            let mut rng = RngStream::new(case, 12);
            let (mut t, mut s, mut a) = fresh();
            let mut model = BTreeSet::new();
            for _ in 0..rng.range(1, 400) {
                let kind = rng.below(3);
                let key = rng.below(64);
                match kind {
                    0 => {
                        t.perform(&mut s, &mut a, Op::Insert(key), 0);
                        model.insert(key);
                    }
                    1 => {
                        t.perform(&mut s, &mut a, Op::Delete(key), 0);
                        model.remove(&key);
                    }
                    _ => assert_eq!(t.contains(key), model.contains(&key), "case {case}"),
                }
                t.check_invariants();
                assert_eq!(t.len(), model.len(), "case {case}");
            }
            for key in 0..64 {
                assert_eq!(t.contains(key), model.contains(&key), "case {case}");
            }
        }
    }

    #[test]
    fn perform_touches_are_bounded() {
        // Mutations touch O(log n) nodes, not the whole tree.
        for case in 0..64 {
            let mut rng = RngStream::new(case, 13);
            let keys: Vec<u64> = (0..rng.range(1, 200)).map(|_| rng.below(128)).collect();
            let (mut t, mut s, mut a) = fresh();
            for &k in &keys {
                let n = t.perform(&mut s, &mut a, Op::Insert(k), 0).len();
                assert!(n <= 3 * 8, "case {case}: insert touched {n}");
            }
            for &k in &keys {
                let n = t.perform(&mut s, &mut a, Op::Delete(k), 0).len();
                assert!(n <= 3 * 8, "case {case}: delete touched {n}");
            }
            assert_eq!(t.len(), 0, "case {case}");
        }
    }
}
