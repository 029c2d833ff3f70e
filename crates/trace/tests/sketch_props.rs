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

use locksim_engine::RngStream;
use locksim_trace::{LockStats, MetricsRegistry, QuantileSketch, TailSummary};

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

/// `n` arbitrary 64-bit samples, `n` drawn from `len`.
fn any_u64s(rng: &mut RngStream, len: std::ops::Range<u64>) -> Vec<u64> {
    (0..rng.range(len.start, len.end))
        .map(|_| rng.next_u64())
        .collect()
}

fn assert_monotone(t: &TailSummary, fed: usize, what: &str) {
    assert_eq!(t.count, fed as u64, "{what} count");
    let chain = [t.p50, t.p95, t.p99, t.p999, t.p9999, t.max];
    assert!(
        chain.windows(2).all(|w| w[0] <= w[1]),
        "{what} quantiles not monotone: {t}"
    );
}

#[test]
fn published_summaries_are_monotone() {
    for case in 0..64 {
        let mut rng = RngStream::new(case, 19);
        let lo = rng.below(1_000_000);
        let width = rng.range(1, 2_000);
        let samples: Vec<u64> = any_u64s(&mut rng, 1..300)
            .iter()
            .map(|x| lo + x % width)
            .collect();
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
        assert_eq!(snap.hists.len(), 1, "case {case}");
        let n = samples.len();
        assert_monotone(&snap.hists[0].1, n, &format!("case {case} registry"));
        let st = ls.lock(0x40).expect("lock recorded");
        assert_monotone(
            &st.handoff.tail_summary(),
            n,
            &format!("case {case} handoff"),
        );
        assert_monotone(&st.hold.tail_summary(), n, &format!("case {case} hold"));
    }
}

#[test]
fn quantile_error_is_bounded() {
    for case in 0..64 {
        let mut rng = RngStream::new(case, 20);
        let samples = any_u64s(&mut rng, 1..200);
        let q = rng.below(1001) as f64 / 1000.0;
        let sk = sketch_of(&samples);
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let exact = exact_quantile(&sorted, q);
        let est = sk.quantile(q).expect("non-empty sketch");
        assert!(
            est <= exact,
            "case {case}: estimate {est} above exact {exact}"
        );
        assert!(
            exact - est <= est / 32,
            "case {case}: error {} above bound {} (exact {exact}, est {est})",
            exact - est,
            est / 32
        );
    }
}

#[test]
fn merge_is_commutative_and_associative() {
    for case in 0..64 {
        let mut rng = RngStream::new(case, 21);
        let a = sketch_of(&any_u64s(&mut rng, 0..100));
        let b = sketch_of(&any_u64s(&mut rng, 0..100));
        let c = sketch_of(&any_u64s(&mut rng, 0..100));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.to_text(), ba.to_text(), "case {case}");
        let mut ab_c = ab;
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c.to_text(), a_bc.to_text(), "case {case}");
    }
}

#[test]
fn merge_equals_combined_feed() {
    for case in 0..64 {
        let mut rng = RngStream::new(case, 22);
        let a = any_u64s(&mut rng, 0..100);
        let b = any_u64s(&mut rng, 0..100);
        let mut merged = sketch_of(&a);
        merged.merge(&sketch_of(&b));
        let combined = [a, b].concat();
        assert_eq!(
            merged.to_text(),
            sketch_of(&combined).to_text(),
            "case {case}"
        );
    }
}

#[test]
fn serialization_round_trips() {
    for case in 0..64 {
        let mut rng = RngStream::new(case, 23);
        let sk = sketch_of(&any_u64s(&mut rng, 0..200));
        let text = sk.to_text();
        let back = QuantileSketch::from_text(&text).expect("own serialization parses");
        assert_eq!(text, back.to_text(), "case {case}");
        assert_eq!(sk.count(), back.count(), "case {case}");
        assert_eq!(sk.min(), back.min(), "case {case}");
        assert_eq!(sk.max(), back.max(), "case {case}");
        for qm in (0..=1000).step_by(100) {
            let q = qm as f64 / 1000.0;
            assert_eq!(sk.quantile(q), back.quantile(q), "case {case}, q={q}");
        }
    }
}
