//! Reproducible random-number streams.
//!
//! Every stochastic component of the simulation (each simulated thread, the
//! scheduler, workload generators, ...) draws from its own [`RngStream`],
//! derived from a master seed plus a stream identifier. Runs with the same
//! seed are bit-for-bit identical regardless of how many components exist or
//! in which order they draw.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A named, reproducible random-number stream.
///
/// # Example
///
/// ```
/// use locksim_engine::RngStream;
///
/// let mut a = RngStream::new(42, 7);
/// let mut b = RngStream::new(42, 7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// let mut c = RngStream::new(42, 8);
/// // Different stream ids decorrelate (overwhelmingly likely to differ).
/// assert_ne!(RngStream::new(42, 7).next_u64(), c.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct RngStream {
    rng: SmallRng,
}

impl RngStream {
    /// Creates the stream `stream` of the master seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        // SplitMix64-style mixing so that adjacent (seed, stream) pairs map to
        // well-separated SmallRng seeds.
        let mut z = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(stream.wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(0x94D0_49BB_1331_11EB);
        let mut next = || {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^ (x >> 31)
        };
        let mut seed_bytes = [0u8; 32];
        for chunk in seed_bytes.chunks_mut(8) {
            chunk.copy_from_slice(&next().to_le_bytes());
        }
        RngStream {
            rng: SmallRng::from_seed(seed_bytes),
        }
    }

    /// Next uniformly distributed `u64`.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.rng.gen()
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        self.rng.gen_range(0..bound)
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    #[inline]
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        self.rng.gen_range(lo..hi)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.rng.gen::<f64>() < p
        }
    }

    /// Geometrically distributed count of failures before the first success
    /// with success probability `p`; used for exponential-ish backoff jitter.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `(0, 1]`.
    pub fn geometric(&mut self, p: f64) -> u64 {
        assert!(p > 0.0 && p <= 1.0, "geometric needs p in (0,1], got {p}");
        if p >= 1.0 {
            return 0;
        }
        let u: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
        (u.ln() / (1.0 - p).ln()).floor() as u64
    }

    /// Forks a decorrelated child stream: one draw from `self` is mixed with
    /// `tag` to seed an independent stream. Children with distinct tags are
    /// decorrelated from each other and from the parent's subsequent output.
    ///
    /// This is the split-stream primitive used by the chaos fuzzer: a root
    /// stream is forked once per concern (fault-plan generation, workload
    /// perturbation), so drawing more values for one concern never shifts
    /// the other's sequence — a plan-generator change cannot silently alter
    /// the workload a seed produces.
    pub fn split(&mut self, tag: u64) -> RngStream {
        RngStream::new(self.next_u64(), tag)
    }

    /// Draws a random permutation index order of `n` elements.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        // Fisher–Yates.
        for i in (1..n).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = RngStream::new(1, 2);
        let mut b = RngStream::new(1, 2);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_streams_differ() {
        let a: Vec<u64> = {
            let mut r = RngStream::new(9, 0);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = RngStream::new(9, 1);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, b);
    }

    #[test]
    fn split_streams_are_independent_of_parent_draw_count() {
        // The child seeded from the first parent draw is the same whether or
        // not the *other* child drew anything in between.
        let child = |other_draws: usize| {
            let mut root = RngStream::new(17, 0);
            let mut a = root.split(0);
            let mut b = root.split(1);
            for _ in 0..other_draws {
                b.next_u64();
            }
            (0..4).map(|_| a.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(child(0), child(100));
        // Distinct tags decorrelate.
        let mut root = RngStream::new(17, 0);
        let mut a = root.split(0);
        let mut root2 = RngStream::new(17, 0);
        let mut b = root2.split(1);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn below_respects_bound() {
        let mut r = RngStream::new(3, 3);
        for _ in 0..1000 {
            assert!(r.below(7) < 7);
        }
    }

    #[test]
    fn range_respects_bounds() {
        let mut r = RngStream::new(3, 4);
        for _ in 0..1000 {
            let x = r.range(10, 20);
            assert!((10..20).contains(&x));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = RngStream::new(5, 5);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-0.5));
        assert!(r.chance(1.5));
    }

    #[test]
    fn chance_is_roughly_calibrated() {
        let mut r = RngStream::new(7, 7);
        let hits = (0..10_000).filter(|_| r.chance(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn geometric_mean_close_to_theory() {
        let mut r = RngStream::new(11, 11);
        let p = 0.5;
        let n = 20_000;
        let sum: u64 = (0..n).map(|_| r.geometric(p)).sum();
        let mean = sum as f64 / n as f64;
        // Theoretical mean (failures before success) = (1-p)/p = 1.0.
        assert!((mean - 1.0).abs() < 0.1, "mean = {mean}");
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut r = RngStream::new(13, 13);
        let mut p = r.permutation(50);
        p.sort_unstable();
        assert_eq!(p, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn permutation_of_zero_and_one() {
        let mut r = RngStream::new(13, 14);
        assert!(r.permutation(0).is_empty());
        assert_eq!(r.permutation(1), vec![0]);
    }
}
