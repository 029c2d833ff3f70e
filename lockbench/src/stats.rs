//! Order statistics over repeated samples and the regression-bound rule
//! that `lockbench compare` applies.

use crate::metrics::Better;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `xs`: the middle sample, or the mean of the two middle ones
/// for an even count. `NaN` when `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of the samples at or below it (`0 < p <= 100`). `NaN` when `xs` is
/// empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let s = sorted(xs);
    if s.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// `cur / base`, with `0 / 0 = 1` and `x / 0 = inf` for `x > 0`.
pub fn ratio(base: f64, cur: f64) -> f64 {
    if base == 0.0 {
        if cur == 0.0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        cur / base
    }
}

/// Whether `cur` is no worse than `base` by more than `bound`, a share of
/// `base`. A bound of 0 rejects any worsening, also from a zero baseline.
pub fn within_bound(base: f64, cur: f64, bound: f64, better: Better) -> bool {
    match better {
        Better::Lower => cur <= base * (1.0 + bound),
        Better::Higher => cur >= base * (1.0 - bound),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn median_ignores_one_outlier() {
        // Four steady repetitions and one +25% straggler.
        assert_eq!(median(&[3.70, 3.72, 4.65, 3.69, 3.71]), 3.71);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 95.0), 95.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[5.0, 1.0], 50.0), 1.0);
        assert_eq!(percentile(&[5.0, 1.0], 51.0), 5.0);
        assert_eq!(percentile(&[9.0], 95.0), 9.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn percentile_is_monotone_in_p() {
        let xs = [8.0, 3.0, 5.0, 13.0, 1.0, 2.0, 1.0, 21.0];
        let mut last = f64::NEG_INFINITY;
        for p in 1..=100 {
            let v = percentile(&xs, f64::from(p));
            assert!(v >= last, "p{p} = {v} < {last}");
            last = v;
        }
    }

    #[test]
    fn bound_for_lower_is_better() {
        assert!(within_bound(10.0, 11.0, 0.10, Better::Lower));
        assert!(!within_bound(10.0, 11.01, 0.10, Better::Lower));
        assert!(
            within_bound(10.0, 2.0, 0.10, Better::Lower),
            "faster passes"
        );
    }

    #[test]
    fn bound_for_higher_is_better() {
        assert!(within_bound(0.8, 0.73, 0.10, Better::Higher));
        assert!(!within_bound(0.8, 0.71, 0.10, Better::Higher));
        assert!(within_bound(0.8, 0.95, 0.10, Better::Higher));
    }

    #[test]
    fn zero_bound_rejects_any_increase_even_from_zero() {
        assert!(within_bound(0.0, 0.0, 0.0, Better::Lower));
        assert!(!within_bound(0.0, 0.001, 0.0, Better::Lower));
        assert!(within_bound(0.01, 0.0, 0.0, Better::Lower));
    }

    #[test]
    fn ratio_handles_zero_base() {
        assert_eq!(ratio(2.0, 3.0), 1.5);
        assert_eq!(ratio(0.0, 0.0), 1.0);
        assert!(ratio(0.0, 1.0).is_infinite());
    }
}
