//! Chained hash table with per-node transactional objects.

use locksim_machine::Alloc;

use crate::object::{ObjId, ObjectSpace};
use crate::structures::{Op, Plan, TxStructure};

/// A chained hash table. Unlike the tree and skip list there is no single
/// entry point: each bucket head is its own object, so transactions touch
/// disjoint objects unless they collide — the paper's "no such pathology"
/// structure in Figure 12.
#[derive(Debug)]
pub struct HashTable {
    buckets: Vec<Bucket>,
    len: usize,
}

#[derive(Debug)]
struct Bucket {
    head_obj: ObjId,
    chain: Vec<(u64, ObjId)>,
}

impl HashTable {
    /// Creates a table with `n_buckets` chains.
    ///
    /// # Panics
    ///
    /// Panics if `n_buckets == 0`.
    pub fn new(space: &mut ObjectSpace, alloc: &mut Alloc, n_buckets: usize) -> Self {
        assert!(n_buckets > 0);
        HashTable {
            buckets: (0..n_buckets)
                .map(|_| Bucket {
                    head_obj: space.alloc(alloc),
                    chain: Vec::new(),
                })
                .collect(),
            len: 0,
        }
    }

    fn bucket_of(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize % self.buckets.len()
    }

    /// Objects read while searching `key` in its bucket: the head, then
    /// chain nodes up to and including the match.
    fn search(&self, key: u64) -> (Vec<ObjId>, usize, Option<usize>) {
        let b = self.bucket_of(key);
        let bucket = &self.buckets[b];
        let mut reads = vec![bucket.head_obj];
        let mut found = None;
        for (i, &(k, obj)) in bucket.chain.iter().enumerate() {
            reads.push(obj);
            if k == key {
                found = Some(i);
                break;
            }
        }
        (reads, b, found)
    }
}

impl TxStructure for HashTable {
    fn plan(&self, op: Op, _aux_seed: u64) -> Plan {
        let key = op.key();
        let (reads, b, found) = self.search(key);
        let writes = match op {
            Op::Lookup(_) => Vec::new(),
            Op::Insert(_) if found.is_some() => Vec::new(),
            // Insert prepends at the head.
            Op::Insert(_) => vec![self.buckets[b].head_obj],
            Op::Delete(_) => match found {
                None => Vec::new(),
                // Unlinking rewrites the predecessor (head if first).
                Some(0) => vec![self.buckets[b].head_obj, self.buckets[b].chain[0].1],
                Some(i) => vec![self.buckets[b].chain[i - 1].1, self.buckets[b].chain[i].1],
            },
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
        let key = op.key();
        let (_, b, found) = self.search(key);
        match op {
            Op::Lookup(_) => Vec::new(),
            Op::Insert(_) => {
                if found.is_some() {
                    return Vec::new();
                }
                let obj = space.alloc(alloc);
                self.buckets[b].chain.insert(0, (key, obj));
                self.len += 1;
                vec![self.buckets[b].head_obj]
            }
            Op::Delete(_) => {
                let Some(i) = found else { return Vec::new() };
                let (_, obj) = self.buckets[b].chain.remove(i);
                self.len -= 1;
                let pred = if i == 0 {
                    self.buckets[b].head_obj
                } else {
                    self.buckets[b].chain[i - 1].1
                };
                vec![pred, obj]
            }
        }
    }

    fn contains(&self, key: u64) -> bool {
        self.search(key).2.is_some()
    }

    fn len(&self) -> usize {
        self.len
    }

    fn check_invariants(&self) {
        let mut total = 0;
        for (b, bucket) in self.buckets.iter().enumerate() {
            for &(k, _) in &bucket.chain {
                assert_eq!(self.bucket_of(k), b, "key {k} in wrong bucket");
            }
            let mut keys: Vec<u64> = bucket.chain.iter().map(|&(k, _)| k).collect();
            let before = keys.len();
            keys.dedup();
            assert_eq!(keys.len(), before, "duplicate keys in bucket {b}");
            total += bucket.chain.len();
        }
        assert_eq!(total, self.len, "len bookkeeping broken");
    }

    fn name(&self) -> &'static str {
        "hash-table"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locksim_engine::RngStream;
    use std::collections::BTreeSet;

    fn fresh(buckets: usize) -> (HashTable, ObjectSpace, Alloc) {
        let mut alloc = Alloc::new();
        let mut space = ObjectSpace::new();
        let h = HashTable::new(&mut space, &mut alloc, buckets);
        (h, space, alloc)
    }

    #[test]
    fn roundtrip() {
        let (mut h, mut s, mut a) = fresh(8);
        for k in 0..20 {
            h.perform(&mut s, &mut a, Op::Insert(k), 0);
        }
        h.check_invariants();
        assert_eq!(h.len(), 20);
        assert!(h.contains(7));
        h.perform(&mut s, &mut a, Op::Delete(7), 0);
        assert!(!h.contains(7));
        h.check_invariants();
    }

    #[test]
    fn collisions_chain() {
        let (mut h, mut s, mut a) = fresh(1);
        for k in 0..10 {
            h.perform(&mut s, &mut a, Op::Insert(k), 0);
        }
        assert_eq!(h.len(), 10);
        // With one bucket, a lookup's read path can span the chain.
        let p = h.plan(Op::Lookup(0), 0);
        assert!(p.reads.len() >= 2);
    }

    #[test]
    fn distinct_buckets_have_distinct_heads() {
        let (h, _, _) = fresh(16);
        let mut heads = BTreeSet::new();
        for b in &h.buckets {
            assert!(heads.insert(b.head_obj));
        }
    }

    #[test]
    fn matches_btreeset() {
        for case in 0..64 {
            let mut rng = RngStream::new(case, 11);
            let (mut h, mut s, mut a) = fresh(16);
            let mut model = BTreeSet::new();
            for _ in 0..rng.range(1, 300) {
                let kind = rng.below(3);
                let key = rng.below(64);
                match kind {
                    0 => {
                        h.perform(&mut s, &mut a, Op::Insert(key), 0);
                        model.insert(key);
                    }
                    1 => {
                        h.perform(&mut s, &mut a, Op::Delete(key), 0);
                        model.remove(&key);
                    }
                    _ => assert_eq!(h.contains(key), model.contains(&key), "case {case}"),
                }
                h.check_invariants();
                assert_eq!(h.len(), model.len(), "case {case}");
            }
        }
    }
}
