//! Statistics collection: counters, running moments and confidence
//! intervals.
//!
//! The experiment harness reports per-configuration means with 95% confidence
//! intervals across repeated runs (mirroring the paper's Figure 13 error
//! bars), so this module provides [`Summary`] for cross-run aggregation and
//! [`Running`] for intra-run accumulation.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Incrementally computed mean/variance/min/max over a stream of samples
/// (Welford's algorithm).
///
/// # Example
///
/// ```
/// use locksim_engine::stats::Running;
///
/// let mut r = Running::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     r.add(x);
/// }
/// assert_eq!(r.count(), 8);
/// assert!((r.mean() - 5.0).abs() < 1e-12);
/// assert!((r.sample_variance() - 32.0 / 7.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Running {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Running {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Running {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Smallest sample (0 if empty — never leaks the +∞ sentinel into
    /// formatted output).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample (0 if empty — never leaks the -∞ sentinel into
    /// formatted output).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Unbiased sample variance (dividing by n-1; 0 if fewer than 2 samples).
    pub fn sample_variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn sample_stddev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Half-width of the 95% confidence interval of the mean, using the
    /// normal approximation (adequate for the ≥5 repetitions the harness
    /// runs). Zero for fewer than two samples.
    pub fn ci95_half_width(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            1.96 * self.sample_stddev() / (self.n as f64).sqrt()
        }
    }

    /// Summarises into a [`Summary`] snapshot.
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.n,
            mean: self.mean(),
            ci95: self.ci95_half_width(),
            min: if self.n == 0 { 0.0 } else { self.min },
            max: if self.n == 0 { 0.0 } else { self.max },
        }
    }

    /// Merges another accumulator into this one (parallel Welford merge).
    pub fn merge(&mut self, other: &Running) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A point-in-time snapshot of a [`Running`] accumulator.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    /// Number of samples.
    pub count: u64,
    /// Sample mean.
    pub mean: f64,
    /// 95% confidence-interval half width.
    pub ci95: f64,
    /// Minimum sample.
    pub min: f64,
    /// Maximum sample.
    pub max: f64,
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // With fewer than two samples there is no spread estimate: render
        // "n/a" rather than a misleading ±0.0 (or NaN from a degenerate
        // accumulator).
        if self.count < 2 || self.ci95.is_nan() {
            write!(f, "{:.1} ±n/a (n={})", self.mean, self.count)
        } else {
            write!(f, "{:.1} ±{:.1} (n={})", self.mean, self.ci95, self.count)
        }
    }
}

/// A fast non-cryptographic hasher (the FxHash multiply-rotate scheme) for
/// simulator-internal keys: counter names and bump-allocated addresses,
/// alone or paired with a thread id. Every lookup on the per-event hot path
/// goes through it, where SipHash showed up in the self-profiler; no key
/// ever comes from outside the program, so collision resistance buys
/// nothing.
#[derive(Debug, Clone, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(26) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.mix(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.mix(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, b: u8) {
        self.mix(b as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`]-keyed maps.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// The simulator's one map type: a `HashMap` over [`FxHasher`]. Build one
/// with `FxHashMap::default()`.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A counter name, hashed and compared by the address and length of its
/// `&'static str`, so a bump never reads the string's bytes.
#[derive(Clone, Copy)]
struct Name(&'static str);

impl PartialEq for Name {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        (self.0.as_ptr(), self.0.len()) == (other.0.as_ptr(), other.0.len())
    }
}

impl Eq for Name {}

impl Hash for Name {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.0.as_ptr() as usize);
        state.write_usize(self.0.len());
    }
}

/// A named bundle of monotonically increasing event counters.
///
/// A run keeps one, in its metrics registry: the machine, the lock backend,
/// the directories and the LRTs all count protocol events (messages sent,
/// retries, grants, overflows, ...) into it, and the harness reads its
/// reports from it. Bumps are hot-path, so storage is an [`FxHashMap`]
/// keyed by where each name's `&'static str` lives, not by its bytes. The
/// same literal can live at more than one address (one copy per crate,
/// say), so every read — [`get`](Counters::get), [`iter`](Counters::iter)
/// and `==` — folds keys by name, and iteration sorts by name so every
/// rendered report stays deterministic.
#[derive(Clone, Default)]
pub struct Counters {
    map: FxHashMap<Name, u64>,
}

impl Counters {
    /// Creates an empty bundle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to counter `name`, creating it at zero if absent.
    #[inline]
    pub fn add(&mut self, name: &'static str, n: u64) {
        *self.map.entry(Name(name)).or_insert(0) += n;
    }

    /// Increments counter `name` by one.
    #[inline]
    pub fn incr(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Current value of `name` (zero if never touched).
    pub fn get(&self, name: &str) -> u64 {
        self.map
            .iter()
            .filter(|(k, _)| k.0 == name)
            .map(|(_, &v)| v)
            .sum()
    }

    /// Iterates `(name, value)` in name order, one entry per name.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        let mut entries: Vec<(&'static str, u64)> =
            self.map.iter().map(|(k, &v)| (k.0, v)).collect();
        entries.sort_unstable_by_key(|&(k, _)| k);
        entries.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 += later.1;
            }
            same
        });
        entries.into_iter()
    }
}

impl PartialEq for Counters {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for Counters {}

impl fmt::Debug for Counters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_empty_is_sane() {
        let r = Running::new();
        assert_eq!(r.count(), 0);
        assert_eq!(r.mean(), 0.0);
        assert_eq!(r.sample_variance(), 0.0);
        assert_eq!(r.ci95_half_width(), 0.0);
    }

    #[test]
    fn running_single_sample() {
        let mut r = Running::new();
        r.add(42.0);
        assert_eq!(r.mean(), 42.0);
        assert_eq!(r.min(), 42.0);
        assert_eq!(r.max(), 42.0);
        assert_eq!(r.sample_variance(), 0.0);
    }

    #[test]
    fn running_matches_naive_computation() {
        let xs: Vec<f64> = (0..100).map(|i| ((i * 37) % 17) as f64).collect();
        let mut r = Running::new();
        for &x in &xs {
            r.add(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((r.mean() - mean).abs() < 1e-9);
        assert!((r.sample_variance() - var).abs() < 1e-9);
    }

    #[test]
    fn running_merge_equals_sequential() {
        let xs: Vec<f64> = (0..50).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Running::new();
        for &x in &xs {
            whole.add(x);
        }
        let mut a = Running::new();
        let mut b = Running::new();
        for (i, &x) in xs.iter().enumerate() {
            if i % 2 == 0 {
                a.add(x)
            } else {
                b.add(x)
            }
        }
        a.merge(&b);
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.sample_variance() - whole.sample_variance()).abs() < 1e-9);
        assert_eq!(a.count(), whole.count());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Running::new();
        a.add(1.0);
        a.add(3.0);
        let before = a.clone();
        a.merge(&Running::new());
        assert_eq!(a, before);
        let mut empty = Running::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn ci_shrinks_with_samples() {
        let mut small = Running::new();
        let mut large = Running::new();
        for i in 0..10 {
            small.add((i % 3) as f64);
        }
        for i in 0..1000 {
            large.add((i % 3) as f64);
        }
        assert!(large.ci95_half_width() < small.ci95_half_width());
    }

    #[test]
    fn summary_display_nonempty() {
        let mut r = Running::new();
        r.add(10.0);
        r.add(20.0);
        let s = format!("{}", r.summary());
        assert!(s.contains("15.0"));
        assert!(!s.contains("n/a"), "two samples have a real CI: {s}");
    }

    #[test]
    fn empty_running_formats_finite() {
        let r = Running::new();
        assert_eq!(r.min(), 0.0);
        assert_eq!(r.max(), 0.0);
        let s = format!("{}", r.summary());
        assert!(
            !s.contains("inf") && !s.contains("NaN"),
            "leaked sentinel: {s}"
        );
        assert!(s.contains("n/a"), "no CI without samples: {s}");
    }

    #[test]
    fn single_sample_summary_renders_na_ci() {
        let mut r = Running::new();
        r.add(42.0);
        let s = format!("{}", r.summary());
        assert!(s.contains("42.0"));
        assert!(s.contains("±n/a"), "n=1 has no spread estimate: {s}");
        assert!(s.contains("(n=1)"));
    }

    #[test]
    fn nan_ci_renders_na() {
        let s = Summary {
            count: 5,
            mean: 1.0,
            ci95: f64::NAN,
            min: 0.0,
            max: 2.0,
        };
        let txt = format!("{s}");
        assert!(!txt.contains("NaN"), "{txt}");
        assert!(txt.contains("±n/a"), "{txt}");
    }

    #[test]
    fn counters_accumulate() {
        let mut a = Counters::new();
        a.incr("msgs");
        a.add("msgs", 4);
        a.incr("retries");
        assert_eq!(a.get("msgs"), 5);
        assert_eq!(a.get("retries"), 1);
        assert_eq!(a.get("absent"), 0);
        let names: Vec<&str> = a.iter().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["msgs", "retries"]);
    }

    #[test]
    fn one_name_at_two_addresses_reads_as_one_counter() {
        let first: &'static str = String::from("msgs").leak();
        let second: &'static str = String::from("msgs").leak();
        assert_ne!(first.as_ptr(), second.as_ptr());
        let mut split = Counters::new();
        split.add(first, 2);
        split.add(second, 3);
        assert_eq!(split.get("msgs"), 5);
        assert_eq!(split.iter().collect::<Vec<_>>(), vec![("msgs", 5)]);
        let mut whole = Counters::new();
        whole.add("msgs", 5);
        assert_eq!(split, whole);
        whole.incr("retries");
        assert_ne!(split, whole);
    }
}
