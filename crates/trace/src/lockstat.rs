//! Per-lock contention statistics (`lockstat`) and the starvation watchdog.
//!
//! Machine-wide counters answer "how much locking happened"; this module
//! answers "*which* lock, in *which* mode, waited *how long*". A
//! [`LockStats`] is keyed by lock line address and records, per lock:
//! acquires/releases split by reader/writer mode, trylock failures,
//! hold-time and handoff-latency sketches (one [`QuantileSketch`] each, read
//! through the same [`crate::TailSummary`] as the metrics registry),
//! queue-depth and reader-group waterlines, per-mode maximum waits, and
//! free-form per-backend auxiliary counters (SSB remote retries, LCU direct
//! transfers, ...).
//!
//! The **starvation watchdog** rides on the same feed: every waiter's
//! enqueue time is tracked, and any wait resolving (grant or trylock
//! failure) past a configurable cycle threshold produces a
//! [`StarvationFlag`] — the machine additionally emits a
//! [`crate::TraceKind::Starve`] trace record at the flagging point. On the
//! paper's SSB reader-preference baseline a writer contending with a
//! steady reader stream trips the watchdog; the LCU's fair queue keeps the
//! same workload silent (asserted by the harness tests).
//!
//! Like the [`crate::Tracer`], a `LockStats` is disabled by default and
//! every record call is a single branch until [`LockStats::enable`] runs.
//! All internal maps are `BTreeMap`s so reports render deterministically.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::chain::LockChain;
use crate::html;
use crate::sketch::QuantileSketch;

/// Index into the per-mode `[read, write]` arrays.
fn mode_ix(write: bool) -> usize {
    usize::from(write)
}

/// Per-lock contention record. Mode-split arrays are `[read, write]`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LockStat {
    /// Grants, by `[read, write]` mode.
    pub acquires: [u64; 2],
    /// Releases, by `[read, write]` mode.
    pub releases: [u64; 2],
    /// Trylock attempts that gave up.
    pub fails: u64,
    /// Handoff latency (request → grant wait), all modes.
    pub handoff: QuantileSketch,
    /// Critical-section hold times.
    pub hold: QuantileSketch,
    /// Sum of wait cycles, by `[read, write]` mode.
    pub total_wait: [u64; 2],
    /// Largest single wait, by `[read, write]` mode.
    pub max_wait: [u64; 2],
    /// Threads currently enqueued (waiting) on this lock.
    pub cur_queue: u32,
    /// Queue-depth waterline: most simultaneous waiters ever seen.
    pub max_queue: u32,
    /// Readers currently holding the lock.
    pub cur_readers: u32,
    /// Largest concurrent reader group ever granted.
    pub max_readers: u32,
    /// Backend-specific per-lock counters (e.g. `ssb_remote_retries`,
    /// `lcu_direct_transfers`), bumped via [`LockStats::bump`].
    pub aux: BTreeMap<&'static str, u64>,
}

impl LockStat {
    /// Total grants across both modes.
    pub fn total_acquires(&self) -> u64 {
        self.acquires[0] + self.acquires[1]
    }

    /// One-lock summary block used by reports and the exclusion checker's
    /// abort dump.
    pub fn render(&self, addr: u64) -> String {
        let mut out = format!(
            "lock {addr:#x}: acquires r={} w={} releases r={} w={} fails={}\n",
            self.acquires[0], self.acquires[1], self.releases[0], self.releases[1], self.fails
        );
        let _ = writeln!(
            out,
            "  handoff wait: {} max_r={} max_w={}",
            self.handoff.tail_summary(),
            self.max_wait[0],
            self.max_wait[1]
        );
        let _ = writeln!(out, "  hold: {}", self.hold.tail_summary());
        let _ = writeln!(
            out,
            "  queue depth waterline {} (now {}); reader group max {} (now {})",
            self.max_queue, self.cur_queue, self.max_readers, self.cur_readers
        );
        if !self.aux.is_empty() {
            let kv: Vec<String> = self.aux.iter().map(|(k, v)| format!("{k}={v}")).collect();
            let _ = writeln!(out, "  {}", kv.join(" "));
        }
        out
    }
}

/// One watchdog firing: a wait that exceeded the configured threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StarvationFlag {
    /// Lock line address.
    pub lock: u64,
    /// The starved thread.
    pub thread: u32,
    /// True when the starved request was for write mode.
    pub write: bool,
    /// Cycles the thread had waited when flagged.
    pub waited: u64,
    /// Simulated time of the flagging point.
    pub at: u64,
    /// How the wait ended: granted, failed trylock, or still waiting when
    /// the report was rendered.
    pub outcome: FlagOutcome,
}

/// How a flagged wait resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlagOutcome {
    /// The wait ended in a grant.
    Granted,
    /// The wait ended in a trylock failure.
    Failed,
    /// The thread was still waiting at report time.
    StillWaiting,
}

impl FlagOutcome {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            FlagOutcome::Granted => "granted",
            FlagOutcome::Failed => "failed",
            FlagOutcome::StillWaiting => "still-waiting",
        }
    }
}

/// Per-lock statistics collector plus starvation watchdog. Disabled (and
/// nearly free) until [`LockStats::enable`].
#[derive(Debug, Clone, Default)]
pub struct LockStats {
    enabled: bool,
    watchdog: Option<u64>,
    locks: BTreeMap<u64, LockStat>,
    /// Outstanding waits: `(lock, thread)` → `(enqueue time, write)`.
    waiting: BTreeMap<(u64, u32), (u64, bool)>,
    flags: Vec<StarvationFlag>,
}

impl LockStats {
    /// A disabled collector (all record calls are no-ops).
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts collecting. `watchdog_cycles` arms the starvation watchdog:
    /// any wait resolving past that many cycles is flagged.
    pub fn enable(&mut self, watchdog_cycles: Option<u64>) {
        self.enabled = true;
        self.watchdog = watchdog_cycles;
    }

    /// Whether records are currently collected.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The configured watchdog threshold, if armed.
    pub fn watchdog_cycles(&self) -> Option<u64> {
        self.watchdog
    }

    /// A thread enqueued on `lock`.
    pub fn on_request(&mut self, lock: u64, thread: u32, write: bool, now: u64) {
        if !self.enabled {
            return;
        }
        self.waiting.insert((lock, thread), (now, write));
        let s = self.locks.entry(lock).or_default();
        s.cur_queue += 1;
        s.max_queue = s.max_queue.max(s.cur_queue);
    }

    /// A thread's acquire was granted after `wait` cycles. Returns a
    /// [`StarvationFlag`] when the wait trips the watchdog.
    pub fn on_grant(
        &mut self,
        lock: u64,
        thread: u32,
        write: bool,
        wait: u64,
        now: u64,
    ) -> Option<StarvationFlag> {
        if !self.enabled {
            return None;
        }
        self.waiting.remove(&(lock, thread));
        let s = self.locks.entry(lock).or_default();
        let ix = mode_ix(write);
        s.acquires[ix] += 1;
        s.handoff.add(wait);
        s.total_wait[ix] += wait;
        s.max_wait[ix] = s.max_wait[ix].max(wait);
        s.cur_queue = s.cur_queue.saturating_sub(1);
        if !write {
            s.cur_readers += 1;
            s.max_readers = s.max_readers.max(s.cur_readers);
        }
        self.watchdog_check(lock, thread, write, wait, now, FlagOutcome::Granted)
    }

    /// A thread released `lock` after holding it for `held` cycles.
    pub fn on_release(&mut self, lock: u64, thread: u32, write: bool, held: u64) {
        if !self.enabled {
            return;
        }
        let _ = thread;
        let s = self.locks.entry(lock).or_default();
        s.releases[mode_ix(write)] += 1;
        s.hold.add(held);
        if !write {
            s.cur_readers = s.cur_readers.saturating_sub(1);
        }
    }

    /// A thread's trylock gave up. Returns a [`StarvationFlag`] when the
    /// abandoned wait trips the watchdog.
    pub fn on_fail(&mut self, lock: u64, thread: u32, now: u64) -> Option<StarvationFlag> {
        if !self.enabled {
            return None;
        }
        let (since, write) = self.waiting.remove(&(lock, thread)).unwrap_or((now, false));
        let s = self.locks.entry(lock).or_default();
        s.fails += 1;
        s.cur_queue = s.cur_queue.saturating_sub(1);
        let wait = now.saturating_sub(since);
        self.watchdog_check(lock, thread, write, wait, now, FlagOutcome::Failed)
    }

    /// Bumps a backend-specific per-lock counter (deterministic name order
    /// in reports).
    pub fn bump(&mut self, lock: u64, name: &'static str) {
        if !self.enabled {
            return;
        }
        *self
            .locks
            .entry(lock)
            .or_default()
            .aux
            .entry(name)
            .or_insert(0) += 1;
    }

    fn watchdog_check(
        &mut self,
        lock: u64,
        thread: u32,
        write: bool,
        waited: u64,
        at: u64,
        outcome: FlagOutcome,
    ) -> Option<StarvationFlag> {
        let threshold = self.watchdog?;
        if waited <= threshold {
            return None;
        }
        let flag = StarvationFlag {
            lock,
            thread,
            write,
            waited,
            at,
            outcome,
        };
        self.flags.push(flag);
        Some(flag)
    }

    /// Watchdog firings so far (resolution order).
    pub fn flags(&self) -> &[StarvationFlag] {
        &self.flags
    }

    /// Waits still outstanding at `now` that already exceed the watchdog
    /// threshold (sorted by `(lock, thread)`). Empty when no watchdog is
    /// armed. Does not mutate the flag list: a run that completes resolves
    /// every wait through [`LockStats::on_grant`] / [`LockStats::on_fail`].
    pub fn overdue(&self, now: u64) -> Vec<StarvationFlag> {
        let Some(threshold) = self.watchdog else {
            return Vec::new();
        };
        self.waiting
            .iter()
            .filter_map(|(&(lock, thread), &(since, write))| {
                let waited = now.saturating_sub(since);
                (waited > threshold).then_some(StarvationFlag {
                    lock,
                    thread,
                    write,
                    waited,
                    at: now,
                    outcome: FlagOutcome::StillWaiting,
                })
            })
            .collect()
    }

    /// Iterates `(lock address, stats)` in address order.
    pub fn locks(&self) -> impl Iterator<Item = (u64, &LockStat)> + '_ {
        self.locks.iter().map(|(&a, s)| (a, s))
    }

    /// Stats for one lock, if it was ever touched.
    pub fn lock(&self, addr: u64) -> Option<&LockStat> {
        self.locks.get(&addr)
    }

    /// One-lock summary for abort dumps; explains itself when the lock was
    /// never seen or collection is off.
    pub fn lock_snapshot(&self, addr: u64) -> String {
        if !self.enabled {
            return format!("lockstat for {addr:#x}: collection disabled\n");
        }
        match self.locks.get(&addr) {
            Some(s) => s.render(addr),
            None => format!("lockstat for {addr:#x}: no recorded activity\n"),
        }
    }

    /// Deterministic full report: every lock's summary plus the watchdog
    /// section (flags so far and waits still overdue at `now`).
    pub fn report(&self, now: u64) -> String {
        let mut out = String::new();
        if !self.enabled {
            out.push_str("lockstat: collection disabled\n");
            return out;
        }
        let _ = writeln!(out, "per-lock stats ({} locks):", self.locks.len());
        for (&addr, s) in &self.locks {
            out.push_str(&s.render(addr));
        }
        match self.watchdog {
            None => {
                out.push_str("starvation watchdog: not armed\n");
            }
            Some(threshold) => {
                let overdue = self.overdue(now);
                let _ = writeln!(
                    out,
                    "starvation watchdog (threshold {threshold} cycles): {} flags, {} overdue",
                    self.flags.len(),
                    overdue.len()
                );
                for f in self.flags.iter().chain(&overdue) {
                    let _ = writeln!(
                        out,
                        "  [t={}] lock {:#x} thread {} {} waited {} cycles ({})",
                        f.at,
                        f.lock,
                        f.thread,
                        if f.write { "write" } else { "read" },
                        f.waited,
                        f.outcome.label()
                    );
                }
            }
        }
        out
    }
}

/// One backend's worth of lockstat report data.
pub struct HtmlSeries<'a> {
    /// Display label, e.g. "ssb" or "lcu".
    pub label: &'a str,
    /// The per-lock stats collected for this run.
    pub stats: &'a LockStats,
    /// Longest blocking chains reconstructed from this run's trace.
    pub chains: &'a [LockChain],
    /// Simulated end time of the run (for the overdue-waiter scan).
    pub end_cycles: u64,
}

/// Renders the lockstat report page: per backend, the per-lock table, an
/// octave bar chart of each lock's handoff wait and hold time, the
/// starvation-watchdog verdict, and the longest blocking chains.
pub fn render_html(title: &str, series: &[HtmlSeries<'_>]) -> String {
    html::page(title, |out| {
        for s in series {
            render_series(out, s);
        }
    })
}

fn render_series(out: &mut String, s: &HtmlSeries<'_>) {
    let _ = writeln!(out, "<h2>backend: {}</h2>", html::esc(s.label));
    let p = |sk: &QuantileSketch, q| sk.quantile(q).unwrap_or(0).to_string();
    let rows = s.stats.locks().map(|(addr, st)| {
        let aux: Vec<String> = st.aux.iter().map(|(k, v)| format!("{k}={v}")).collect();
        [
            format!("{addr:#x}"),
            st.acquires[0].to_string(),
            st.acquires[1].to_string(),
            st.releases[0].to_string(),
            st.releases[1].to_string(),
            st.fails.to_string(),
            p(&st.handoff, 0.50),
            p(&st.handoff, 0.99),
            st.max_wait[0].to_string(),
            st.max_wait[1].to_string(),
            p(&st.hold, 0.50),
            st.max_queue.to_string(),
            st.max_readers.to_string(),
            aux.join(" "),
        ]
    });
    html::table(
        out,
        &[
            "lock",
            "acq r",
            "acq w",
            "rel r",
            "rel w",
            "fails",
            "wait p50",
            "wait p99",
            "max wait r",
            "max wait w",
            "hold p50",
            "queue max",
            "readers max",
            "backend counters",
        ],
        rows,
    );

    for (addr, st) in s.stats.locks() {
        let _ = writeln!(out, "<h3>lock {addr:#x} handoff wait (cycles)</h3>");
        html::octave_bars(out, &st.handoff);
        let _ = writeln!(out, "<h3>lock {addr:#x} hold time (cycles)</h3>");
        html::octave_bars(out, &st.hold);
    }

    render_watchdog(out, s);
    render_chains_html(out, s.chains);
}

fn render_watchdog(out: &mut String, s: &HtmlSeries<'_>) {
    out.push_str("<h3>starvation watchdog</h3>\n");
    let Some(threshold) = s.stats.watchdog_cycles() else {
        out.push_str("<p>not armed</p>\n");
        return;
    };
    let flags = s.stats.flags();
    let overdue = s.stats.overdue(s.end_cycles);
    if flags.is_empty() && overdue.is_empty() {
        let _ = writeln!(
            out,
            "<p class=\"{}\">OK — no wait exceeded {threshold} cycles</p>",
            html::verdict_class("ok")
        );
        return;
    }
    let _ = writeln!(
        out,
        "<p class=\"{}\">STARVED — {} flags, {} overdue (threshold {threshold} cycles)</p>",
        html::verdict_class("starved"),
        flags.len(),
        overdue.len()
    );
    let rows = flags.iter().chain(&overdue).map(|f| {
        [
            f.at.to_string(),
            format!("{:#x}", f.lock),
            f.thread.to_string(),
            (if f.write { "write" } else { "read" }).to_string(),
            f.waited.to_string(),
            f.outcome.label().to_string(),
        ]
    });
    html::table(
        out,
        &["at", "lock", "thread", "mode", "waited", "outcome"],
        rows,
    );
}

fn render_chains_html(out: &mut String, chains: &[LockChain]) {
    out.push_str("<h3>longest blocking chains</h3>\n");
    if chains.is_empty() {
        out.push_str("<p>no lock grants in trace</p>\n");
        return;
    }
    let mut by_depth: Vec<&LockChain> = chains.iter().collect();
    by_depth.sort_by_key(|c| std::cmp::Reverse(c.links.len()));
    let rows = by_depth.into_iter().map(|c| {
        [
            format!("{:#x}", c.lock),
            c.links.len().to_string(),
            c.span.to_string(),
            c.total_wait.to_string(),
            c.path(" → "),
        ]
    });
    html::table(out, &["lock", "depth", "span", "total wait", "chain"], rows);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let mut ls = LockStats::new();
        ls.on_request(0x40, 0, true, 0);
        assert!(ls.on_grant(0x40, 0, true, 10, 10).is_none());
        ls.on_release(0x40, 0, true, 5);
        ls.bump(0x40, "x");
        assert_eq!(ls.locks().count(), 0);
        assert!(ls.report(100).contains("disabled"));
    }

    #[test]
    fn counts_split_by_mode_and_sketches_fill() {
        let mut ls = LockStats::new();
        ls.enable(None);
        ls.on_request(0x40, 0, false, 0);
        ls.on_request(0x40, 1, false, 0);
        ls.on_request(0x40, 2, true, 0);
        assert!(ls.on_grant(0x40, 0, false, 4, 4).is_none());
        assert!(ls.on_grant(0x40, 1, false, 6, 6).is_none());
        ls.on_release(0x40, 0, false, 100);
        ls.on_release(0x40, 1, false, 90);
        assert!(ls.on_grant(0x40, 2, true, 200, 206).is_none());
        ls.on_release(0x40, 2, true, 50);
        let s = ls.lock(0x40).unwrap();
        assert_eq!(s.acquires, [2, 1]);
        assert_eq!(s.releases, [2, 1]);
        assert_eq!(s.max_queue, 3);
        assert_eq!(s.cur_queue, 0);
        assert_eq!(s.max_readers, 2);
        assert_eq!(s.cur_readers, 0);
        assert_eq!(s.handoff.count(), 3);
        assert_eq!(s.handoff.max(), Some(200));
        assert_eq!(s.hold.count(), 3);
        assert_eq!(s.hold.max(), Some(100));
        assert_eq!(s.max_wait, [6, 200]);
        assert_eq!(s.total_wait, [10, 200]);
        let report = ls.report(300);
        assert!(
            report.contains("handoff wait: count 3 p50 6 p95 200 p99 200"),
            "{report}"
        );
    }

    #[test]
    fn watchdog_flags_long_waits_only() {
        let mut ls = LockStats::new();
        ls.enable(Some(100));
        ls.on_request(0x40, 0, true, 0);
        ls.on_request(0x40, 1, true, 0);
        assert!(ls.on_grant(0x40, 0, true, 50, 50).is_none());
        let f = ls.on_grant(0x40, 1, true, 500, 500).expect("must flag");
        assert_eq!(f.thread, 1);
        assert!(f.write);
        assert_eq!(f.waited, 500);
        assert_eq!(f.outcome, FlagOutcome::Granted);
        assert_eq!(ls.flags().len(), 1);
        let report = ls.report(600);
        assert!(report.contains("1 flags"), "{report}");
        assert!(report.contains("thread 1 write waited 500"), "{report}");
    }

    #[test]
    fn overdue_waits_reported_without_mutation() {
        let mut ls = LockStats::new();
        ls.enable(Some(100));
        ls.on_request(0x80, 3, false, 10);
        assert!(ls.overdue(50).is_empty());
        let od = ls.overdue(500);
        assert_eq!(od.len(), 1);
        assert_eq!(od[0].thread, 3);
        assert_eq!(od[0].outcome, FlagOutcome::StillWaiting);
        assert!(ls.flags().is_empty(), "overdue() must not record flags");
    }

    #[test]
    fn failed_trylock_counts_and_can_flag() {
        let mut ls = LockStats::new();
        ls.enable(Some(10));
        ls.on_request(0x40, 5, true, 0);
        let f = ls.on_fail(0x40, 5, 100).expect("long failed wait flags");
        assert_eq!(f.outcome, FlagOutcome::Failed);
        assert_eq!(ls.lock(0x40).unwrap().fails, 1);
        assert_eq!(ls.lock(0x40).unwrap().cur_queue, 0);
    }

    #[test]
    fn aux_counters_render_in_name_order() {
        let mut ls = LockStats::new();
        ls.enable(None);
        ls.bump(0x40, "zeta");
        ls.bump(0x40, "alpha");
        ls.bump(0x40, "alpha");
        let snap = ls.lock_snapshot(0x40);
        let a = snap.find("alpha=2").unwrap();
        let z = snap.find("zeta=1").unwrap();
        assert!(a < z, "{snap}");
    }

    #[test]
    fn snapshot_of_unknown_lock_is_explanatory() {
        let mut ls = LockStats::new();
        assert!(ls.lock_snapshot(0x99).contains("disabled"));
        ls.enable(None);
        assert!(ls.lock_snapshot(0x99).contains("no recorded activity"));
    }

    #[test]
    fn report_is_deterministic() {
        let build = || {
            let mut ls = LockStats::new();
            ls.enable(Some(50));
            for t in 0..4u32 {
                ls.on_request(0x100 + u64::from(t % 2) * 0x40, t, t % 2 == 0, u64::from(t));
            }
            for t in 0..4u32 {
                ls.on_grant(
                    0x100 + u64::from(t % 2) * 0x40,
                    t,
                    t % 2 == 0,
                    u64::from(t) * 40,
                    200,
                );
            }
            ls.report(400)
        };
        assert_eq!(build(), build());
    }

    fn html_sample_stats() -> LockStats {
        let mut ls = LockStats::new();
        ls.enable(Some(100));
        ls.on_request(0x40, 0, true, 0);
        ls.on_request(0x40, 1, true, 0);
        ls.on_grant(0x40, 0, true, 4, 4);
        ls.on_release(0x40, 0, true, 200);
        ls.on_grant(0x40, 1, true, 400, 404);
        ls.on_release(0x40, 1, true, 150);
        ls
    }

    #[test]
    fn html_report_is_selfcontained_and_escaped() {
        let ls = html_sample_stats();
        let html = render_html(
            "lockstat <quick>",
            &[HtmlSeries {
                label: "ssb & friends",
                stats: &ls,
                chains: &[],
                end_cycles: 1000,
            }],
        );
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("lockstat &lt;quick&gt;"));
        assert!(html.contains("ssb &amp; friends"));
        assert!(html.contains("<svg"));
        assert!(html.contains("class=\"bad\">STARVED"));
        // Self-contained: no external fetches of any kind.
        assert!(!html.contains("http://") && !html.contains("https://"));
        assert!(!html.contains("<script"));
    }

    #[test]
    fn html_quiet_watchdog_renders_ok() {
        let mut ls = LockStats::new();
        ls.enable(Some(1_000_000));
        ls.on_request(0x40, 0, true, 0);
        ls.on_grant(0x40, 0, true, 4, 4);
        ls.on_release(0x40, 0, true, 10);
        let html = render_html(
            "t",
            &[HtmlSeries {
                label: "lcu",
                stats: &ls,
                chains: &[],
                end_cycles: 100,
            }],
        );
        assert!(html.contains("class=\"ok\">OK"), "{html}");
        assert!(!html.contains("STARVED"));
    }

    #[test]
    fn html_render_is_deterministic() {
        let ls = html_sample_stats();
        let mk = || {
            render_html(
                "t",
                &[HtmlSeries {
                    label: "x",
                    stats: &ls,
                    chains: &[],
                    end_cycles: 500,
                }],
            )
        };
        assert_eq!(mk(), mk());
    }
}
