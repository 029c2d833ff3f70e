//! Windowed time-series collection keyed on simulated cycles.
//!
//! End-of-run quantiles say *how bad* the tail was; they cannot say *when*
//! — whether p99.9 came from a single convoy at warm-up or a steady drip
//! across the whole run. A [`SeriesCollector`] buckets observations into
//! fixed-width windows of simulated time and keeps, per window: grant
//! throughput, a wait-latency [`QuantileSketch`], the queue-depth
//! waterline, and counts of marked events (fault injections, starvation
//! flags).
//!
//! Memory is bounded: when the run outgrows `max_windows`, the window
//! width doubles and adjacent windows merge pairwise (sketches merge
//! exactly, counts add, waterlines max). Rescaling is a pure function of
//! the observation stream, so same-seed runs produce byte-identical
//! exports regardless of when rescales happen. Everything here is keyed on
//! *simulated* cycles — no host time — so CSV/JSON exports diff cleanly
//! across runs.

use std::collections::BTreeMap;

use crate::sketch::QuantileSketch;

/// Default window width, in simulated cycles. One OS quantum in the
/// machine's scheduler model is 100k cycles, so this resolves
/// scheduling-induced convoys to a quarter-quantum.
pub const DEFAULT_WINDOW: u64 = 25_000;

/// Default cap on live windows before the collector rescales.
pub const DEFAULT_MAX_WINDOWS: usize = 256;

/// Everything recorded for one window of simulated time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct WindowStat {
    /// Lock grants completed in this window.
    grants: u64,
    /// Wait latency (request→grant) of those grants.
    wait: QuantileSketch,
    /// Highest waiter-queue depth seen in this window.
    queue_peak: u64,
    /// Marked events (fault injections, oracle flags), by kind.
    marks: BTreeMap<&'static str, u64>,
}

impl WindowStat {
    fn merge(&mut self, other: &WindowStat) {
        self.grants += other.grants;
        self.wait.merge(&other.wait);
        self.queue_peak = self.queue_peak.max(other.queue_peak);
        for (&k, &v) in &other.marks {
            *self.marks.entry(k).or_insert(0) += v;
        }
    }
}

/// Bounded-memory per-window statistics over simulated time. Disabled by
/// default (every hook is a branch on a bool); arm with
/// [`SeriesCollector::enable`].
#[derive(Debug, Clone, Default)]
pub struct SeriesCollector {
    enabled: bool,
    window: u64,
    max_windows: usize,
    windows: BTreeMap<u64, WindowStat>,
}

impl SeriesCollector {
    /// A disabled collector with default sizing.
    pub fn new() -> Self {
        SeriesCollector {
            enabled: false,
            window: DEFAULT_WINDOW,
            max_windows: DEFAULT_MAX_WINDOWS,
            windows: BTreeMap::new(),
        }
    }

    /// Arms collection. `window` is the initial width in simulated cycles
    /// (0 picks [`DEFAULT_WINDOW`]); width doubles whenever the run
    /// outgrows [`DEFAULT_MAX_WINDOWS`] live windows.
    pub fn enable(&mut self, window: u64) {
        self.enabled = true;
        if window > 0 {
            self.window = window;
        }
    }

    /// Whether collection is armed.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Current window width in cycles (grows by doubling).
    pub fn window(&self) -> u64 {
        self.window
    }

    fn slot(&mut self, now: u64) -> &mut WindowStat {
        let ix = now / self.window;
        // Length first: the map is full only in the window before a
        // rescale, so most samples are searched for once, by `entry`.
        if self.windows.len() >= self.max_windows && !self.windows.contains_key(&ix) {
            self.rescale();
            return self.slot(now);
        }
        self.windows.entry(ix).or_default()
    }

    /// Doubles the window width, merging adjacent windows pairwise.
    fn rescale(&mut self) {
        self.window *= 2;
        let old = std::mem::take(&mut self.windows);
        for (ix, stat) in old {
            self.windows.entry(ix / 2).or_default().merge(&stat);
        }
    }

    /// Records a lock grant at `now` that waited `wait` cycles.
    pub fn on_grant(&mut self, now: u64, wait: u64) {
        if !self.enabled {
            return;
        }
        let s = self.slot(now);
        s.grants += 1;
        s.wait.add(wait);
    }

    /// Records the waiter-queue depth observed at `now` (waterline: only
    /// the per-window maximum is kept).
    pub fn on_queue_depth(&mut self, now: u64, depth: u64) {
        if !self.enabled {
            return;
        }
        let s = self.slot(now);
        s.queue_peak = s.queue_peak.max(depth);
    }

    /// Records one marked event of `kind` at `now` (fault injection,
    /// starvation flag, ...).
    pub fn mark(&mut self, now: u64, kind: &'static str) {
        if !self.enabled {
            return;
        }
        *self.slot(now).marks.entry(kind).or_insert(0) += 1;
    }

    /// Owned, deterministic export of every live window.
    pub fn snapshot(&self) -> SeriesSnapshot {
        let rows = self
            .windows
            .iter()
            .map(|(&ix, s)| {
                let t = s.wait.tail_summary();
                WindowRow {
                    start_cycle: ix * self.window,
                    grants: s.grants,
                    wait_p50: t.p50,
                    wait_p99: t.p99,
                    wait_max: t.max,
                    queue_peak: s.queue_peak,
                    marks: s.marks.iter().map(|(&k, &v)| (k.to_string(), v)).collect(),
                    wait_sketch: s.wait.to_text(),
                }
            })
            .collect();
        SeriesSnapshot {
            window: self.window,
            rows,
        }
    }
}

/// One exported window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowRow {
    /// First cycle covered by the window.
    pub start_cycle: u64,
    /// Grants completed in the window.
    pub grants: u64,
    /// Median wait of those grants.
    pub wait_p50: u64,
    /// 99th-percentile wait.
    pub wait_p99: u64,
    /// Worst wait.
    pub wait_max: u64,
    /// Queue-depth waterline.
    pub queue_peak: u64,
    /// `(kind, count)` of marked events, in kind order.
    pub marks: Vec<(String, u64)>,
    /// The full wait sketch (`qsketch-v1` text) for cross-run merging.
    pub wait_sketch: String,
}

/// Owned export of a [`SeriesCollector`]: the final window width and every
/// live window in time order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeriesSnapshot {
    /// Window width in cycles at export time.
    pub window: u64,
    /// Windows in start-cycle order.
    pub rows: Vec<WindowRow>,
}

impl SeriesSnapshot {
    /// Canonical CSV rendering (header + one line per window); marks are
    /// `kind:count` joined with `;`. Byte-identical across same-seed runs.
    pub fn to_csv(&self) -> String {
        let mut out =
            String::from("start_cycle,window,grants,wait_p50,wait_p99,wait_max,queue_peak,marks\n");
        for r in &self.rows {
            let marks: Vec<String> = r.marks.iter().map(|(k, v)| format!("{k}:{v}")).collect();
            out.push_str(&format!(
                "{},{},{},{},{},{},{},{}\n",
                r.start_cycle,
                self.window,
                r.grants,
                r.wait_p50,
                r.wait_p99,
                r.wait_max,
                r.queue_peak,
                marks.join(";")
            ));
        }
        out
    }

    /// Whether anything was recorded.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let mut s = SeriesCollector::new();
        s.on_grant(10, 5);
        s.on_queue_depth(10, 3);
        s.mark(10, "fault");
        assert!(s.snapshot().is_empty());
    }

    #[test]
    fn windows_bucket_by_cycle() {
        let mut s = SeriesCollector::new();
        s.enable(100);
        s.on_grant(10, 5);
        s.on_grant(50, 7);
        s.on_grant(150, 9);
        s.on_queue_depth(40, 4);
        s.on_queue_depth(60, 2);
        s.mark(160, "fault/suspend");
        let snap = s.snapshot();
        assert_eq!(snap.window, 100);
        assert_eq!(snap.rows.len(), 2);
        assert_eq!(snap.rows[0].start_cycle, 0);
        assert_eq!(snap.rows[0].grants, 2);
        assert_eq!(snap.rows[0].queue_peak, 4);
        assert_eq!(snap.rows[1].start_cycle, 100);
        assert_eq!(snap.rows[1].grants, 1);
        assert_eq!(snap.rows[1].marks, vec![("fault/suspend".to_string(), 1)]);
    }

    #[test]
    fn rescale_bounds_memory_and_preserves_totals() {
        let mut s = SeriesCollector::new();
        s.enable(10);
        // Far more than DEFAULT_MAX_WINDOWS distinct windows.
        for i in 0..10_000u64 {
            s.on_grant(i * 10, i % 97);
        }
        let snap = s.snapshot();
        assert!(snap.rows.len() <= DEFAULT_MAX_WINDOWS);
        assert!(snap.window > 10, "must have rescaled");
        let total: u64 = snap.rows.iter().map(|r| r.grants).sum();
        assert_eq!(total, 10_000, "no grants lost in rescales");
    }

    #[test]
    fn rescale_is_transparent_to_late_observers() {
        // Feeding the same stream into a pre-doubled collector produces the
        // same snapshot as one that rescaled mid-stream.
        let feed = |s: &mut SeriesCollector| {
            for i in 0..3_000u64 {
                s.on_grant(i * 10, (i * 7) % 131);
                if i % 5 == 0 {
                    s.on_queue_depth(i * 10, i % 11);
                }
                if i % 100 == 0 {
                    s.mark(i * 10, "tick");
                }
            }
        };
        let mut a = SeriesCollector::new();
        a.enable(10);
        feed(&mut a);
        let mut b = SeriesCollector::new();
        b.enable(a.window()); // start at the final width
        feed(&mut b);
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn out_of_order_feed_credits_every_window() {
        // A grant stamped in window k+1 (`now + delay`), then a request at
        // `now` back in window k, then enough later windows to force a
        // rescale: every observation stays in the window it fell in.
        let mut s = SeriesCollector::new();
        s.enable(100);
        s.on_grant(150, 40);
        s.on_queue_depth(90, 3);
        s.on_grant(95, 7);
        s.mark(99, "late");
        s.on_grant(160, 5);
        for k in 2..=DEFAULT_MAX_WINDOWS as u64 {
            s.on_grant(k * 100, k);
        }
        let snap = s.snapshot();
        assert_eq!(snap.window, 200, "one rescale");
        let first = &snap.rows[0];
        assert_eq!(
            (first.start_cycle, first.grants, first.queue_peak),
            (0, 3, 3)
        );
        assert_eq!(first.marks, vec![("late".to_string(), 1)]);
        let mut wait = crate::sketch::QuantileSketch::new();
        for v in [40, 7, 5] {
            wait.add(v);
        }
        assert_eq!(first.wait_sketch, wait.to_text());
        let total: u64 = snap.rows.iter().map(|r| r.grants).sum();
        assert_eq!(total, 3 + DEFAULT_MAX_WINDOWS as u64 - 1);
        assert_eq!(snap.rows.len(), DEFAULT_MAX_WINDOWS / 2 + 1);
    }

    #[test]
    fn csv_is_deterministic_and_ordered() {
        let mut s = SeriesCollector::new();
        s.enable(100);
        s.on_grant(250, 12);
        s.on_grant(50, 3);
        s.mark(250, "b");
        s.mark(250, "a");
        let csv = s.snapshot().to_csv();
        assert_eq!(csv, s.snapshot().to_csv());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[1].starts_with("0,100,1,"));
        assert!(lines[2].starts_with("200,100,1,"));
        assert!(lines[2].ends_with("a:1;b:1"), "{}", lines[2]);
    }
}
