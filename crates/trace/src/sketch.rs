//! HDR-style mergeable quantile sketch with bounded relative error — the
//! simulator's one latency recorder.
//!
//! A [`QuantileSketch`] splits every power-of-two octave into `2^K` linear
//! sub-buckets, giving every quantile a guaranteed relative error of at
//! most `2^-K` (values below `2^K` are recorded exactly). Every published
//! quantile — metrics snapshots, lockstat, time-series windows, the run
//! ledger — is read from a sketch through the same rank rule, so the p50 ≤
//! p95 ≤ p99 ≤ p99.9 ≤ p99.99 ≤ max chain of a [`TailSummary`] always holds.
//! Renderers that want coarse power-of-two bars (the lockstat SVG) read the
//! per-octave view [`QuantileSketch::octaves`] instead of keeping a second
//! histogram.
//!
//! Sketches are **mergeable** — bucket counts add, so per-window or
//! per-shard sketches combine into a run-level sketch without reordering
//! error (merge is associative and commutative, property-tested) — and
//! **deterministically serializable**: [`QuantileSketch::to_text`] is a
//! canonical single-line form that round-trips through
//! [`QuantileSketch::from_text`] and diffs byte-for-byte across same-seed
//! runs. That makes the sketch the unit of exchange for the run-manifest
//! ledger (`locksim-report`).
//!
//! Buckets live in two sorted parallel arrays (bucket indices and their
//! counts): `add` and `merge` find each bucket by binary search, so
//! recording a sample never walks a tree. A sketch holds few buckets over
//! a wide range (a window's waits span octaves), which is why the arrays
//! are sparse rather than one slot per bucket index.

use std::fmt;

/// Sub-bucket resolution: each power-of-two octave is split into `2^K`
/// linear buckets, bounding relative quantile error at `2^-K` (~3.1%).
const K: u32 = 5;
/// Number of sub-buckets per octave (`2^K`); also the threshold below
/// which values are recorded exactly.
const SUBS: u64 = 1 << K;

/// Serialization header tag; bumped if the encoding ever changes.
const TAG: &str = "qsketch-v1";

/// Index of the bucket holding `v`. Monotone in `v`, so bucketing
/// preserves sample order and rank-based quantiles land in the right
/// bucket.
fn bucket(v: u64) -> u32 {
    if v < SUBS {
        v as u32
    } else {
        let exp = 63 - v.leading_zeros();
        let sub = (v >> (exp - K)) as u32; // in [SUBS, 2*SUBS)
        (exp - K) * SUBS as u32 + sub
    }
}

/// Power-of-two octave of bucket `ix`: octave `k` covers `[2^k, 2^(k+1))`,
/// and octave 0 also holds zero.
fn octave(ix: u32) -> u32 {
    let subs = SUBS as u32;
    if ix < subs {
        ix.max(1).ilog2()
    } else {
        (ix - subs) / subs + K
    }
}

/// Low bound of bucket `ix` (the value [`QuantileSketch::quantile`]
/// reports). Exact inverse of [`bucket`] on bucket boundaries.
fn low(ix: u32) -> u64 {
    let subs = SUBS as u32;
    if ix < subs {
        u64::from(ix)
    } else {
        let block = (ix - subs) / subs;
        let sub = ix - block * subs; // in [SUBS, 2*SUBS)
        u64::from(sub) << block
    }
}

/// A log-bucketed quantile sketch: mergeable, deterministic, bounded
/// relative error (`2^-K`, see module docs). All state is plain bucket
/// counts, so clone/merge/serialize are cheap and exact.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QuantileSketch {
    /// Indices of the recorded buckets, strictly increasing.
    ixs: Vec<u32>,
    /// `counts[i]` samples fell in bucket `ixs[i]`.
    counts: Vec<u64>,
    count: u64,
    min: u64,
    max: u64,
}

/// The dashboard's standard tail readout of one sketch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TailSummary {
    /// Number of samples.
    pub count: u64,
    /// Median.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// 99.99th percentile.
    pub p9999: u64,
    /// Largest sample (exact, not bucketed).
    pub max: u64,
}

impl fmt::Display for TailSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "count {} p50 {} p95 {} p99 {} p999 {} p9999 {} max {}",
            self.count, self.p50, self.p95, self.p99, self.p999, self.p9999, self.max
        )
    }
}

impl QuantileSketch {
    /// An empty sketch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn add(&mut self, v: u64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.bump(bucket(v), 1);
        self.count += 1;
    }

    /// Adds `c` samples to bucket `ix`, inserting it in index order if new.
    fn bump(&mut self, ix: u32, c: u64) {
        match self.ixs.binary_search(&ix) {
            Ok(i) => self.counts[i] += c,
            Err(i) => {
                self.ixs.insert(i, ix);
                self.counts.insert(i, c);
            }
        }
    }

    /// `(bucket index, count)` for every recorded bucket, in index order.
    fn buckets(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.ixs.iter().copied().zip(self.counts.iter().copied())
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest sample (exact); `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample (exact); `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// The q-quantile: low bound of the bucket holding the
    /// `ceil(q·count)`-th smallest sample, so monotone in `q`.
    /// Underestimates by at most a factor of `2^-K`; exact for values below
    /// `2^K`. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (ix, c) in self.buckets() {
            seen += c;
            if seen >= target {
                // The top bucket cannot report past the true maximum.
                return Some(low(ix).min(self.max));
            }
        }
        Some(self.max)
    }

    /// Folds another sketch into this one. Associative and commutative:
    /// the result is identical to a sketch fed both sample streams.
    pub fn merge(&mut self, other: &QuantileSketch) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        for (ix, c) in other.buckets() {
            self.bump(ix, c);
        }
        self.count += other.count;
    }

    /// The standard p50–p99.99 readout (zeros when empty).
    pub fn tail_summary(&self) -> TailSummary {
        TailSummary {
            count: self.count,
            p50: self.quantile(0.50).unwrap_or(0),
            p95: self.quantile(0.95).unwrap_or(0),
            p99: self.quantile(0.99).unwrap_or(0),
            p999: self.quantile(0.999).unwrap_or(0),
            p9999: self.quantile(0.9999).unwrap_or(0),
            max: self.max().unwrap_or(0),
        }
    }

    /// `(2^k, count)` for every non-empty power-of-two octave
    /// `[2^k, 2^(k+1))`, in increasing order (octave 0 also holds zero):
    /// the sketch's sub-buckets summed per octave, for coarse bar charts.
    pub fn octaves(&self) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = Vec::new();
        for (ix, c) in self.buckets() {
            let low = 1u64 << octave(ix);
            match out.last_mut() {
                Some((l, n)) if *l == low => *n += c,
                _ => out.push((low, c)),
            }
        }
        out
    }

    /// Canonical single-line serialization:
    /// `qsketch-v1 k=<K> count=<n> min=<m> max=<x> buckets=<ix>:<c>,...`.
    /// Byte-identical for equal sketches (buckets in index order).
    pub fn to_text(&self) -> String {
        let buckets: Vec<String> = self.buckets().map(|(ix, c)| format!("{ix}:{c}")).collect();
        format!(
            "{TAG} k={K} count={} min={} max={} buckets={}",
            self.count,
            self.min,
            self.max,
            buckets.join(",")
        )
    }

    /// Parses the [`QuantileSketch::to_text`] form.
    ///
    /// # Errors
    ///
    /// Returns a message on a wrong tag, a resolution mismatch, malformed
    /// fields, a repeated bucket index, or a bucket total that overflows
    /// `u64` or disagrees with `count`. Buckets may come in any index order.
    pub fn from_text(text: &str) -> Result<QuantileSketch, String> {
        let mut parts = text.split_whitespace();
        if parts.next() != Some(TAG) {
            return Err(format!("not a {TAG} line: {text:?}"));
        }
        let mut field = |name: &str| -> Result<String, String> {
            let p = parts.next().ok_or_else(|| format!("missing {name}="))?;
            p.strip_prefix(&format!("{name}="))
                .map(str::to_string)
                .ok_or_else(|| format!("expected {name}=..., found {p:?}"))
        };
        let k: u32 = field("k")?.parse().map_err(|_| "bad k".to_string())?;
        if k != K {
            return Err(format!(
                "resolution mismatch: sketch has k={k}, this build uses k={K}"
            ));
        }
        let count: u64 = field("count")?
            .parse()
            .map_err(|_| "bad count".to_string())?;
        let min: u64 = field("min")?.parse().map_err(|_| "bad min".to_string())?;
        let max: u64 = field("max")?.parse().map_err(|_| "bad max".to_string())?;
        let spec = field("buckets")?;
        let mut buckets: Vec<(u32, u64)> = Vec::new();
        let mut total = 0u64;
        if !spec.is_empty() {
            for pair in spec.split(',') {
                let (ix, c) = pair
                    .split_once(':')
                    .ok_or_else(|| format!("bad bucket {pair:?}"))?;
                let ix: u32 = ix.parse().map_err(|_| format!("bad bucket index {ix:?}"))?;
                let c: u64 = c.parse().map_err(|_| format!("bad bucket count {c:?}"))?;
                buckets.push((ix, c));
                total = total
                    .checked_add(c)
                    .ok_or_else(|| format!("bucket total overflows at {pair:?}"))?;
            }
        }
        buckets.sort_unstable_by_key(|&(ix, _)| ix);
        if let Some(w) = buckets.windows(2).find(|w| w[0].0 == w[1].0) {
            return Err(format!("duplicate bucket {}", w[0].0));
        }
        if total != count {
            return Err(format!("bucket total {total} != count {count}"));
        }
        let (ixs, counts) = buckets.into_iter().unzip();
        Ok(QuantileSketch {
            ixs,
            counts,
            count,
            min,
            max,
        })
    }
}

/// The retired `BTreeMap` sketch, kept as the reference model for the
/// differential property test: the same encoding and rank rule over a
/// bucket map that is obviously in index order.
#[cfg(test)]
mod model {
    use std::collections::BTreeMap;

    use super::{bucket, low, octave, K, TAG};

    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct MapSketch {
        buckets: BTreeMap<u32, u64>,
        count: u64,
        min: u64,
        max: u64,
    }

    impl MapSketch {
        pub fn add(&mut self, v: u64) {
            if self.count == 0 {
                self.min = v;
                self.max = v;
            } else {
                self.min = self.min.min(v);
                self.max = self.max.max(v);
            }
            *self.buckets.entry(bucket(v)).or_insert(0) += 1;
            self.count += 1;
        }

        pub fn quantile(&self, q: f64) -> Option<u64> {
            if self.count == 0 {
                return None;
            }
            let target = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
            let mut seen = 0;
            for (&ix, &c) in &self.buckets {
                seen += c;
                if seen >= target {
                    return Some(low(ix).min(self.max));
                }
            }
            Some(self.max)
        }

        pub fn merge(&mut self, other: &MapSketch) {
            if other.count == 0 {
                return;
            }
            if self.count == 0 {
                self.min = other.min;
                self.max = other.max;
            } else {
                self.min = self.min.min(other.min);
                self.max = self.max.max(other.max);
            }
            for (&ix, &c) in &other.buckets {
                *self.buckets.entry(ix).or_insert(0) += c;
            }
            self.count += other.count;
        }

        pub fn octaves(&self) -> Vec<(u64, u64)> {
            let mut out: Vec<(u64, u64)> = Vec::new();
            for (&ix, &c) in &self.buckets {
                let low = 1u64 << octave(ix);
                match out.last_mut() {
                    Some((l, n)) if *l == low => *n += c,
                    _ => out.push((low, c)),
                }
            }
            out
        }

        pub fn to_text(&self) -> String {
            let buckets: Vec<String> = self
                .buckets
                .iter()
                .map(|(ix, c)| format!("{ix}:{c}"))
                .collect();
            format!(
                "{TAG} k={K} count={} min={} max={} buckets={}",
                self.count,
                self.min,
                self.max,
                buckets.join(",")
            )
        }

        /// The retired parser, reduced to the bucket list: the header
        /// fields parse exactly as in `QuantileSketch::from_text`.
        pub fn from_text(text: &str) -> Result<MapSketch, String> {
            let field = |name: &str| -> Result<&str, String> {
                text.split_whitespace()
                    .find_map(|p| p.strip_prefix(&format!("{name}=")))
                    .ok_or_else(|| format!("missing {name}="))
            };
            let num = |name: &str| -> Result<u64, String> {
                field(name)?.parse().map_err(|_| format!("bad {name}"))
            };
            let (count, min, max) = (num("count")?, num("min")?, num("max")?);
            let spec = field("buckets")?;
            let mut buckets = BTreeMap::new();
            let mut total = 0u64;
            if !spec.is_empty() {
                for pair in spec.split(',') {
                    let (ix, c) = pair
                        .split_once(':')
                        .ok_or_else(|| format!("bad bucket {pair:?}"))?;
                    let ix: u32 = ix.parse().map_err(|_| format!("bad bucket index {ix:?}"))?;
                    let c: u64 = c.parse().map_err(|_| format!("bad bucket count {c:?}"))?;
                    if buckets.insert(ix, c).is_some() {
                        return Err(format!("duplicate bucket {ix}"));
                    }
                    total = total
                        .checked_add(c)
                        .ok_or_else(|| format!("bucket total overflows at {pair:?}"))?;
                }
            }
            if total != count {
                return Err(format!("bucket total {total} != count {count}"));
            }
            Ok(MapSketch {
                buckets,
                count,
                min,
                max,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut s = QuantileSketch::new();
        for v in 0..SUBS {
            s.add(v);
        }
        for q in [0.1, 0.5, 0.9, 1.0] {
            let target = ((SUBS as f64) * q).ceil().max(1.0) as u64;
            assert_eq!(s.quantile(q), Some(target - 1), "q={q}");
        }
        assert_eq!(s.min(), Some(0));
        assert_eq!(s.max(), Some(SUBS - 1));
    }

    #[test]
    fn bucket_low_roundtrip_and_monotone() {
        let mut prev = None;
        for v in (0..4096u64).chain([1 << 20, u64::MAX / 2, u64::MAX]) {
            let ix = bucket(v);
            let lo = low(ix);
            assert!(lo <= v, "low({ix})={lo} > v={v}");
            // The bucket's width never exceeds the error bound.
            assert!(v - lo <= lo / SUBS, "v={v} lo={lo}");
            if let Some((pv, pix)) = prev {
                assert!(pv <= v && pix <= ix, "monotonicity");
            }
            prev = Some((v, ix));
        }
    }

    #[test]
    fn quantile_error_is_bounded() {
        let mut s = QuantileSketch::new();
        let mut samples: Vec<u64> = Vec::new();
        let mut x = 7u64;
        for _ in 0..10_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = x >> (x % 50);
            s.add(v);
            samples.push(v);
        }
        samples.sort_unstable();
        for q in [0.5, 0.9, 0.99, 0.999, 0.9999] {
            let target = ((samples.len() as f64) * q).ceil().max(1.0) as usize;
            let exact = samples[target - 1];
            let est = s.quantile(q).unwrap();
            assert!(est <= exact, "q={q}: est {est} > exact {exact}");
            assert!(
                exact - est <= est / SUBS,
                "q={q}: est {est} off from exact {exact} by more than {}",
                est / SUBS
            );
        }
    }

    #[test]
    fn merge_equals_combined_feed() {
        let mut a = QuantileSketch::new();
        let mut b = QuantileSketch::new();
        let mut all = QuantileSketch::new();
        for v in 0..1000u64 {
            let x = v * v % 7919;
            if v % 2 == 0 {
                a.add(x);
            } else {
                b.add(x);
            }
            all.add(x);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged, all);
        // Commutative.
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ba, all);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s = QuantileSketch::new();
        s.add(42);
        let snapshot = s.clone();
        s.merge(&QuantileSketch::new());
        assert_eq!(s, snapshot);
        let mut e = QuantileSketch::new();
        e.merge(&snapshot);
        assert_eq!(e, snapshot);
    }

    #[test]
    fn serialization_roundtrips() {
        let mut s = QuantileSketch::new();
        for v in [0, 1, 31, 32, 33, 1000, 123_456_789] {
            s.add(v);
        }
        let text = s.to_text();
        let parsed = QuantileSketch::from_text(&text).unwrap();
        assert_eq!(parsed, s);
        assert_eq!(parsed.to_text(), text);
        // Empty sketch round-trips too.
        let e = QuantileSketch::new();
        assert_eq!(QuantileSketch::from_text(&e.to_text()).unwrap(), e);
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(QuantileSketch::from_text("nonsense").is_err());
        assert!(QuantileSketch::from_text("qsketch-v1 k=3 count=0 min=0 max=0 buckets=").is_err());
        assert!(
            QuantileSketch::from_text("qsketch-v1 k=5 count=2 min=0 max=0 buckets=0:1").is_err(),
            "count/bucket mismatch must fail"
        );
        assert!(
            QuantileSketch::from_text("qsketch-v1 k=5 count=2 min=0 max=0 buckets=0:1,0:1")
                .is_err(),
            "duplicate buckets must fail"
        );
    }

    #[test]
    fn parse_rejects_a_bucket_total_that_overflows() {
        // Wrapping, the counts would sum to 0 and match `count`.
        let text = "qsketch-v1 k=5 count=0 min=0 max=0 buckets=0:18446744073709551615,1:1";
        let err = QuantileSketch::from_text(text).unwrap_err();
        assert!(err.contains("overflows"), "{err}");
    }

    #[test]
    fn tail_summary_reads_all_quantiles() {
        let mut s = QuantileSketch::new();
        for v in 1..=100_000u64 {
            s.add(v);
        }
        let t = s.tail_summary();
        assert_eq!(t.count, 100_000);
        assert_eq!(t.max, 100_000);
        assert!(t.p50 <= t.p95 && t.p95 <= t.p99 && t.p99 <= t.p999 && t.p999 <= t.p9999);
        // Each estimate is within the error bound of the true quantile.
        for (est, exact) in [
            (t.p50, 50_000u64),
            (t.p95, 95_000),
            (t.p99, 99_000),
            (t.p999, 99_900),
            (t.p9999, 99_990),
        ] {
            assert!(
                est <= exact && exact - est <= est / SUBS,
                "{est} vs {exact}"
            );
        }
    }

    #[test]
    fn octaves_sum_sub_buckets_per_power_of_two() {
        let mut s = QuantileSketch::new();
        for v in [0, 1, 2, 3, 31, 32, 63, 64, 1000, 1023, 1024, u64::MAX] {
            s.add(v);
        }
        assert_eq!(
            s.octaves(),
            vec![
                (1, 2),
                (2, 2),
                (16, 1),
                (32, 2),
                (64, 1),
                (512, 2),
                (1024, 1),
                (1 << 63, 1)
            ]
        );
        assert!(QuantileSketch::new().octaves().is_empty());
    }

    #[test]
    fn quantile_never_exceeds_max() {
        let mut s = QuantileSketch::new();
        s.add(1_000);
        s.add(1_001);
        assert!(s.quantile(1.0).unwrap() <= 1_001);
    }

    mod differential {
        //! The sorted-array sketch and the retired `BTreeMap` sketch are
        //! driven with identical random adds, merges in both directions
        //! (empty sides included) and re-parses of their text with the
        //! bucket list shuffled, and must agree at every step on
        //! `to_text` bytes, quantiles, `octaves` and `==`.

        use super::super::model::MapSketch;
        use super::*;
        use locksim_engine::RngStream;

        #[derive(Debug, Clone)]
        enum Op {
            /// Record `v` on side `a` (else `b`).
            Add { a: bool, v: u64 },
            /// Fold `b` into `a` (else `a` into `b`).
            Merge { into_a: bool },
            /// Empty side `a` (else `b`).
            Clear { a: bool },
            /// Re-parse side `a` (else `b`) from its text, the bucket list
            /// permuted by `seed`, with a zero-count bucket inserted if
            /// `zero` and a bucket repeated (which both must reject) if
            /// `dup`.
            Reparse {
                a: bool,
                seed: u64,
                zero: bool,
                dup: bool,
            },
        }

        /// One random op, biased toward adds, with values exact (below
        /// `SUBS`), mid-range and spread over every octave.
        fn random_op(rng: &mut RngStream) -> Op {
            let a = rng.below(2) == 0;
            match rng.below(10) {
                0..=5 => {
                    let x = rng.next_u64();
                    let v = match rng.below(3) {
                        0 => x % SUBS,
                        1 => x % 100_000,
                        _ => x >> (x % 64),
                    };
                    Op::Add { a, v }
                }
                6 | 7 => Op::Merge { into_a: a },
                8 => Op::Clear { a },
                _ => Op::Reparse {
                    a,
                    seed: rng.next_u64(),
                    zero: rng.below(4) == 0,
                    dup: rng.below(8) == 0,
                },
            }
        }

        /// `text` with its bucket list permuted by `seed` (Fisher-Yates
        /// over an LCG), plus a zero-count bucket or a repeated bucket.
        fn scramble(text: &str, seed: u64, zero: bool, dup: bool) -> String {
            let (head, spec) = text.split_once(" buckets=").expect("buckets field");
            let mut pairs: Vec<&str> = spec.split(',').filter(|p| !p.is_empty()).collect();
            // An index some 64-bit value reaches (`bucket(u64::MAX)` is the
            // last), so every reader can place it.
            let spare = format!("{}:0", seed % (u64::from(bucket(u64::MAX)) + 1));
            let taken = |p: &&str| p.split(':').next() == spare.split(':').next();
            if zero && !pairs.iter().any(taken) {
                pairs.push(&spare);
            }
            if dup {
                if let Some(&first) = pairs.first() {
                    pairs.push(first);
                }
            }
            let mut x = seed;
            for i in (1..pairs.len()).rev() {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                pairs.swap(i, ((x >> 33) % (i as u64 + 1)) as usize);
            }
            format!("{head} buckets={}", pairs.join(","))
        }

        fn check_same(case: u64, s: &QuantileSketch, m: &MapSketch, side: &str) {
            assert_eq!(s.to_text(), m.to_text(), "case {case}, side {side} text");
            assert_eq!(s.octaves(), m.octaves(), "case {case}, side {side} octaves");
            for q in [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
                assert_eq!(
                    s.quantile(q),
                    m.quantile(q),
                    "case {case}, side {side} q={q}"
                );
            }
        }

        fn check_agree(case: u64, ops: Vec<Op>) {
            let (mut a, mut b) = (QuantileSketch::new(), QuantileSketch::new());
            let (mut ma, mut mb) = (MapSketch::default(), MapSketch::default());
            for op in ops {
                match op {
                    Op::Add { a: true, v } => {
                        a.add(v);
                        ma.add(v);
                    }
                    Op::Add { a: false, v } => {
                        b.add(v);
                        mb.add(v);
                    }
                    Op::Merge { into_a: true } => {
                        a.merge(&b);
                        ma.merge(&mb);
                    }
                    Op::Merge { into_a: false } => {
                        b.merge(&a);
                        mb.merge(&ma);
                    }
                    Op::Clear { a: true } => {
                        a = QuantileSketch::new();
                        ma = MapSketch::default();
                    }
                    Op::Clear { a: false } => {
                        b = QuantileSketch::new();
                        mb = MapSketch::default();
                    }
                    Op::Reparse {
                        a: on_a,
                        seed,
                        zero,
                        dup,
                    } => {
                        let (s, m) = if on_a {
                            (&mut a, &mut ma)
                        } else {
                            (&mut b, &mut mb)
                        };
                        let text = scramble(&m.to_text(), seed, zero, dup);
                        match (
                            QuantileSketch::from_text(&text),
                            MapSketch::from_text(&text),
                        ) {
                            (Ok(ps), Ok(pm)) => {
                                *s = ps;
                                *m = pm;
                            }
                            (Err(_), Err(_)) => assert!(dup, "case {case}: rejected {text}"),
                            (ps, pm) => panic!(
                                "case {case}: parsers disagree on {text:?}: {ps:?} vs {pm:?}"
                            ),
                        }
                    }
                }
                check_same(case, &a, &ma, "a");
                check_same(case, &b, &mb, "b");
                assert_eq!(a == b, ma == mb, "case {case}: == disagrees");
            }
        }

        #[test]
        fn sorted_arrays_match_btree_model() {
            for case in 0..128 {
                let mut rng = RngStream::new(case, 18);
                let ops = (0..rng.range(1, 200))
                    .map(|_| random_op(&mut rng))
                    .collect();
                check_agree(case, ops);
            }
        }
    }
}
