//! The metrics registry: named counters plus one latency sketch per name
//! with p50–p99.99 summaries.
//!
//! Counters are one [`locksim_engine::stats::Counters`]: a run's machine,
//! lock backend, directories and LRTs all count into the machine's
//! registry, so a snapshot reads every count from one place. Each latency
//! sample lands in exactly one [`QuantileSketch`], and every published
//! quantile is read from it. A [`MetricsSnapshot`] is an owned,
//! deterministic rendering of all of it — used by the harness for its
//! metrics tables, by the run-manifest ledger (which embeds the serialized
//! sketches), and by the golden determinism tests, which compare snapshots
//! byte-for-byte.

use locksim_engine::stats::Counters;

use crate::sketch::{QuantileSketch, TailSummary};

/// Central store for a run's counters and latency sketches.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: Counters,
    /// One sketch per name, in the order names were first observed. A run
    /// records into a handful of names, so a scan by the name's address
    /// finds one faster than a tree walk that compares bytes; the same
    /// literal can live at two addresses, so a miss falls back to the
    /// bytes before taking a new entry (the rule [`Counters`] keys by).
    hists: Vec<(&'static str, QuantileSketch)>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter bundle.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Mutable access for components that count through the registry.
    #[inline]
    pub fn counters_mut(&mut self) -> &mut Counters {
        &mut self.counters
    }

    /// Increments counter `name`.
    #[inline]
    pub fn incr(&mut self, name: &'static str) {
        self.counters.incr(name);
    }

    /// Adds `n` to counter `name`.
    #[inline]
    pub fn add(&mut self, name: &'static str, n: u64) {
        self.counters.add(name, n);
    }

    /// Records a latency sample (in cycles) into sketch `name`.
    pub fn observe(&mut self, name: &'static str, cycles: u64) {
        crate::prof::count("metrics/hist_samples", 1);
        let i = self
            .hists
            .iter()
            .position(|&(n, _)| std::ptr::eq(n, name))
            .or_else(|| self.hists.iter().position(|&(n, _)| n == name))
            .unwrap_or_else(|| {
                self.hists.push((name, QuantileSketch::new()));
                self.hists.len() - 1
            });
        self.hists[i].1.add(cycles);
    }

    /// Sketch `name`, if any samples were recorded.
    pub fn hist(&self, name: &str) -> Option<&QuantileSketch> {
        self.hists.iter().find(|&&(n, _)| n == name).map(|(_, h)| h)
    }

    /// Owned summary of everything recorded.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut sorted: Vec<&(&'static str, QuantileSketch)> = self.hists.iter().collect();
        sorted.sort_unstable_by_key(|&&(name, _)| name);
        let hists = sorted
            .iter()
            .map(|(name, h)| (*name, h.tail_summary()))
            .collect();
        let sketches = sorted
            .iter()
            .map(|(name, h)| (name.to_string(), h.to_text()))
            .collect();
        MetricsSnapshot {
            counters: self.counters.clone(),
            hists,
            sketches,
        }
    }
}

/// Owned, deterministic end-of-run summary: all counters (name order), all
/// latency quantiles, and the serialized quantile sketches behind them
/// (the run-manifest ledger embeds these so dashboards can re-merge and
/// re-quantile across runs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// The run's counters, iterated in name order.
    pub counters: Counters,
    /// `(name, tail summary)` for each latency sketch, in name order.
    pub hists: Vec<(&'static str, TailSummary)>,
    /// `(name, qsketch-v1 text)` for each latency sketch, in name order.
    pub sketches: Vec<(String, String)>,
}

impl MetricsSnapshot {
    /// Canonical text rendering; byte-identical across same-seed runs (the
    /// golden determinism tests compare this string).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, v) in self.counters.iter() {
            out.push_str(&format!("counter {name} {v}\n"));
        }
        for (name, t) in &self.hists {
            out.push_str(&format!("hist {name} {t}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_and_quantiles() {
        let mut m = MetricsRegistry::new();
        for v in [1u64, 1, 1, 1, 1, 1, 1, 1, 1, 1000] {
            m.observe("wait", v);
        }
        let h = m.hist("wait").unwrap();
        assert_eq!(h.count(), 10);
        assert_eq!(h.quantile(0.5), Some(1));
        assert_eq!(h.quantile(0.99), Some(992));
        assert!(m.hist("absent").is_none());
    }

    #[test]
    fn snapshot_p95_comes_from_the_sketch() {
        let mut m = MetricsRegistry::new();
        for _ in 0..100 {
            m.observe("hold", 20);
        }
        let snap = m.snapshot();
        let (name, t) = snap.hists[0];
        assert_eq!(name, "hold");
        assert_eq!((t.p50, t.p95, t.p99, t.max), (20, 20, 20, 20));
    }

    #[test]
    fn snapshot_renders_counters_and_sketches_deterministically() {
        let mut m = MetricsRegistry::new();
        m.incr("a");
        m.add("b", 3);
        m.counters_mut().add("b", 2);
        m.counters_mut().incr("c");
        m.observe("lat", 16);
        let snap = m.snapshot();
        assert_eq!(snap.counters.get("b"), 5);
        assert_eq!(snap.counters.get("c"), 1);
        let r = snap.render();
        assert_eq!(
            r,
            "counter a 1\ncounter b 5\ncounter c 1\n\
             hist lat count 1 p50 16 p95 16 p99 16 p999 16 p9999 16 max 16\n"
        );
        // Identical input → identical rendering.
        assert_eq!(r, m.snapshot().render());
        // The snapshot carries the serialized sketch for the ledger.
        assert_eq!(snap.sketches.len(), 1);
        assert_eq!(snap.sketches[0].0, "lat");
        let parsed = crate::sketch::QuantileSketch::from_text(&snap.sketches[0].1).unwrap();
        assert_eq!(parsed.count(), 1);
        assert_eq!(parsed.max(), Some(16));
    }

    #[test]
    fn render_folds_one_name_at_two_addresses() {
        let mut m = MetricsRegistry::new();
        m.add(String::from("grants").leak(), 2);
        m.counters_mut().add(String::from("grants").leak(), 3);
        assert_eq!(m.snapshot().render(), "counter grants 5\n");
    }

    #[test]
    fn one_name_at_two_addresses_lands_in_one_sketch() {
        let mut m = MetricsRegistry::new();
        m.observe(String::from("wait").leak(), 10);
        m.observe(String::from("wait").leak(), 20);
        m.observe("wait", 30);
        assert_eq!(m.hist("wait").map(QuantileSketch::count), Some(3));
        let snap = m.snapshot();
        assert_eq!(snap.hists.len(), 1);
        assert_eq!(snap.sketches.len(), 1);
        assert_eq!(snap.hists[0].1.count, 3);
    }

    #[test]
    fn snapshot_lists_sketches_in_name_order_whatever_the_first_observation() {
        let names = [
            "mem_op_cycles",
            "lock_wait_cycles",
            "lock_hold_cycles",
            "a",
            "zz",
        ];
        let mut m = MetricsRegistry::new();
        for (i, &name) in names.iter().enumerate() {
            m.observe(name, i as u64);
        }
        let mut sorted = names.to_vec();
        sorted.sort_unstable();
        let snap = m.snapshot();
        let hists: Vec<&str> = snap.hists.iter().map(|&(n, _)| n).collect();
        let sketches: Vec<&str> = snap.sketches.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(hists, sorted);
        assert_eq!(sketches, sorted);
        // The reverse observation order snapshots to the same bytes.
        let mut r = MetricsRegistry::new();
        for (i, &name) in names.iter().enumerate().rev() {
            r.observe(name, i as u64);
        }
        assert_eq!(r.snapshot(), snap);
    }

    #[test]
    fn snapshot_tail_quantiles_use_sketch_resolution() {
        let mut m = MetricsRegistry::new();
        for v in 1..=10_000u64 {
            m.observe("lat", v);
        }
        let snap = m.snapshot();
        let (_, h) = &snap.hists[0];
        // A power-of-two histogram would round p50 down to 4096; the sketch
        // stays within 1/32 of the true 5000.
        assert!(h.p50 >= 4992 && h.p50 <= 5000, "p50={}", h.p50);
        assert!(h.p999 >= 9900 && h.p999 <= 9990, "p999={}", h.p999);
        assert_eq!(h.max, 10_000);
        assert!(h.p50 <= h.p95 && h.p95 <= h.p99 && h.p99 <= h.p999);
        assert!(h.p999 <= h.p9999 && h.p9999 <= h.max);
    }
}
