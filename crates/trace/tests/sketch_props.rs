//! Property tests for the mergeable quantile sketch: the advertised
//! relative-error bound against exact order statistics, the merge
//! algebra (commutative, associative, equivalent to a combined feed),
//! serialization round-trips, and monotone summaries from every consumer
//! that publishes quantiles (metrics registry, lockstat).
//!
//! The error model under test: every reported quantile is the low bound
//! of the log-bucket holding the exact rank statistic, so estimates
//! never exceed the exact value and undershoot by at most one bucket
//! width — `est / 32` with the sketch's 32 sub-buckets per octave
//! (values below 32 are exact).

use locksim_trace::{LockStats, MetricsRegistry, QuantileSketch, TailSummary};
use proptest::prelude::*;

/// Exact order statistic with the sketch's rank rule: the smallest value
/// with at least `ceil(n * q)` (min 1) samples at or below it.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn sketch_of(samples: &[u64]) -> QuantileSketch {
    let mut s = QuantileSketch::new();
    for &v in samples {
        s.add(v);
    }
    s
}

fn assert_monotone(t: &TailSummary, fed: usize, what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(t.count, fed as u64, "{} count", what);
    let chain = [t.p50, t.p95, t.p99, t.p999, t.p9999, t.max];
    prop_assert!(
        chain.windows(2).all(|w| w[0] <= w[1]),
        "{} quantiles not monotone: {}",
        what,
        t
    );
    Ok(())
}

proptest! {
    #[test]
    fn published_summaries_are_monotone(
        lo in 0u64..1_000_000,
        width in 1u64..2_000,
        xs in proptest::collection::vec(any::<u64>(), 1..300),
    ) {
        let samples: Vec<u64> = xs.iter().map(|x| lo + x % width).collect();
        let mut m = MetricsRegistry::new();
        let mut ls = LockStats::new();
        ls.enable(None);
        for (i, &v) in samples.iter().enumerate() {
            m.observe("lat", v);
            let now = i as u64 * 10;
            ls.on_request(0x40, 0, true, now);
            ls.on_grant(0x40, 0, true, v, now);
            ls.on_release(0x40, 0, true, v, now + v);
        }
        let snap = m.snapshot([]);
        prop_assert_eq!(snap.hists.len(), 1);
        assert_monotone(&snap.hists[0].1, samples.len(), "registry")?;
        let st = ls.lock(0x40).expect("lock recorded");
        assert_monotone(&st.handoff.tail_summary(), samples.len(), "handoff")?;
        assert_monotone(&st.hold.tail_summary(), samples.len(), "hold")?;
    }

    #[test]
    fn quantile_error_is_bounded(
        samples in proptest::collection::vec(any::<u64>(), 1..200),
        qm in 0u64..=1000,
    ) {
        let q = qm as f64 / 1000.0;
        let sk = sketch_of(&samples);
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let exact = exact_quantile(&sorted, q);
        let est = sk.quantile(q).expect("non-empty sketch");
        prop_assert!(est <= exact, "estimate {} above exact {}", est, exact);
        prop_assert!(
            exact - est <= est / 32,
            "error {} above bound {} (exact {}, est {})",
            exact - est,
            est / 32,
            exact,
            est
        );
    }

    #[test]
    fn merge_is_commutative_and_associative(
        a in proptest::collection::vec(any::<u64>(), 0..100),
        b in proptest::collection::vec(any::<u64>(), 0..100),
        c in proptest::collection::vec(any::<u64>(), 0..100),
    ) {
        let (sa, sb, sc) = (sketch_of(&a), sketch_of(&b), sketch_of(&c));
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        prop_assert_eq!(ab.to_text(), ba.to_text());
        let mut ab_c = ab;
        ab_c.merge(&sc);
        let mut bc = sb.clone();
        bc.merge(&sc);
        let mut a_bc = sa.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(ab_c.to_text(), a_bc.to_text());
    }

    #[test]
    fn merge_equals_combined_feed(
        a in proptest::collection::vec(any::<u64>(), 0..100),
        b in proptest::collection::vec(any::<u64>(), 0..100),
    ) {
        let mut merged = sketch_of(&a);
        merged.merge(&sketch_of(&b));
        let mut combined: Vec<u64> = a.clone();
        combined.extend_from_slice(&b);
        prop_assert_eq!(merged.to_text(), sketch_of(&combined).to_text());
    }

    #[test]
    fn serialization_round_trips(
        samples in proptest::collection::vec(any::<u64>(), 0..200),
    ) {
        let sk = sketch_of(&samples);
        let text = sk.to_text();
        let back = QuantileSketch::from_text(&text).expect("own serialization parses");
        prop_assert_eq!(text.clone(), back.to_text());
        prop_assert_eq!(sk.count(), back.count());
        prop_assert_eq!(sk.min(), back.min());
        prop_assert_eq!(sk.max(), back.max());
        let mut qm = 0u64;
        while qm <= 1000 {
            let q = qm as f64 / 1000.0;
            prop_assert_eq!(sk.quantile(q), back.quantile(q));
            qm += 100;
        }
    }
}
