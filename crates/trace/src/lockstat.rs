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
//! **Blocking chains** grow on the same feed, as the run goes: a run of
//! grants where each grantee was already waiting when its predecessor
//! released, so the lock went from holder to waiter with no idle gap. The
//! longest chain per lock is the serialized handoff path that the paper's
//! direct LCU→LCU transfer shortens. A grant links to the lock's last
//! release iff the grantee requested at or before it; nodes link only to
//! their predecessor, so a chain nothing reaches any more is freed.
//!
//! Like the [`crate::Tracer`], a `LockStats` is disabled by default and
//! every record call is a single branch until [`LockStats::enable`] runs.
//! All internal maps are `BTreeMap`s so reports render deterministically.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::sync::Arc;

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

/// The starvation watchdog's verdict on a run, over every wait that passed
/// its threshold ([`LockStats::flags_at`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatchdogVerdict {
    /// No wait passed the threshold.
    Ok,
    /// Only read-mode waits passed it.
    ReaderFlagsOnly,
    /// A write-mode wait passed it: a writer starved.
    Starved,
}

impl WatchdogVerdict {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            WatchdogVerdict::Ok => "ok",
            WatchdogVerdict::ReaderFlagsOnly => "reader flags only",
            WatchdogVerdict::Starved => "STARVED",
        }
    }
}

/// One grant in a blocking chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainLink {
    /// The granted thread.
    pub thread: u32,
    /// True for a write-mode grant.
    pub write: bool,
    /// Simulated time of the grant.
    pub granted_at: u64,
    /// Cycles the thread waited for this grant.
    pub wait: u64,
}

/// The longest blocking chain of one lock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockChain {
    /// Lock line address.
    pub lock: u64,
    /// Grants in handoff order, earliest first.
    pub links: Vec<ChainLink>,
    /// Cycles from the chain's first grant to its last.
    pub span: u64,
    /// Total wait cycles accumulated across the chain's links.
    pub total_wait: u64,
}

impl LockChain {
    /// One-line rendering, e.g.
    /// `lock 0x40: depth 3 span 1040 cy wait 960 cy  t0:w -> t1:w -> t2:w`.
    pub fn describe(&self) -> String {
        format!(
            "lock {:#x}: depth {} span {} cy wait {} cy  {}",
            self.lock,
            self.links.len(),
            self.span,
            self.total_wait,
            self.path(" -> ")
        )
    }

    /// The handoff order as `t0:w`-style links joined by `sep`. A chain of
    /// more than 32 links prints its first 16 and last 16 with
    /// `… N more …` between them; depth, span and total wait still cover
    /// the whole chain.
    pub fn path(&self, sep: &str) -> String {
        let link = |l: &ChainLink| format!("t{}:{}", l.thread, if l.write { "w" } else { "r" });
        let n = self.links.len();
        let parts: Vec<String> = if n <= PATH_LINKS {
            self.links.iter().map(link).collect()
        } else {
            let half = PATH_LINKS / 2;
            let head = self.links[..half].iter().map(link);
            let tail = self.links[n - half..].iter().map(link);
            head.chain([format!("… {} more …", n - PATH_LINKS)])
                .chain(tail)
                .collect()
        };
        parts.join(sep)
    }
}

/// The longest chain [`LockChain::path`] prints link by link.
const PATH_LINKS: usize = 32;

/// `chains` deepest first (ties broken by lock address via the stable sort
/// over the address-ordered input).
pub fn deepest_first(chains: &[LockChain]) -> Vec<&LockChain> {
    let mut by_depth: Vec<&LockChain> = chains.iter().collect();
    by_depth.sort_by_key(|c| std::cmp::Reverse(c.links.len()));
    by_depth
}

/// Renders a chain listing, deepest chain first.
pub fn render_chains(chains: &[LockChain]) -> String {
    if chains.is_empty() {
        return "no blocking chains (no lock grants in trace)\n".to_string();
    }
    let mut out = String::from("longest blocking chains per lock:\n");
    for c in deepest_first(chains) {
        let _ = writeln!(out, "  {}", c.describe());
    }
    out
}

/// A grant in a lock's chain, linked to the grant it was handed off from.
struct Node {
    link: ChainLink,
    depth: u32,
    pred: Option<Arc<Node>>,
}

impl Drop for Node {
    /// Frees the predecessors this node alone kept alive one at a time, so
    /// dropping a chain of any length does not recurse once per link.
    fn drop(&mut self) {
        let mut pred = self.pred.take();
        while let Some(p) = pred {
            pred = Arc::into_inner(p).and_then(|mut n| n.pred.take());
        }
    }
}

/// Not derived: a derived `Debug` would recurse once per link.
impl fmt::Debug for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?} at depth {}", self.link, self.depth)
    }
}

/// One lock's chain state, extended at every grant and release.
#[derive(Debug, Clone, Default)]
struct ChainState {
    /// Current holders: thread → the node of their grant.
    holders: BTreeMap<u32, Arc<Node>>,
    /// The lock's most recent release: (release time, releasing node).
    last_release: Option<(u64, Arc<Node>)>,
    /// The deepest node so far (the first to reach its depth).
    deepest: Option<Arc<Node>>,
}

impl ChainState {
    /// Adds a grant, linked to the last release when the grantee requested
    /// (`wait` cycles before the grant) at or before it.
    fn grant(&mut self, link: ChainLink) {
        let req_at = link.granted_at.saturating_sub(link.wait);
        let pred = match &self.last_release {
            Some((rel_t, node)) if req_at <= *rel_t => Some(Arc::clone(node)),
            _ => None,
        };
        let depth = pred.as_ref().map_or(1, |p| p.depth + 1);
        let node = Arc::new(Node { link, depth, pred });
        if self.deepest.as_ref().is_none_or(|d| depth > d.depth) {
            self.deepest = Some(Arc::clone(&node));
        }
        self.holders.insert(link.thread, node);
        // A reader group admitted together chains through the lock's last
        // release, so clearing it only after a writer grant (which ends any
        // group) keeps sibling readers at equal depth rather than stacking
        // them artificially.
        if link.write {
            self.last_release = None;
        }
    }

    /// The deepest chain, earliest grant first, or `None` before any grant.
    fn longest(&self, lock: u64) -> Option<LockChain> {
        let mut links: Vec<ChainLink> =
            std::iter::successors(self.deepest.as_deref(), |n| n.pred.as_deref())
                .map(|n| n.link)
                .collect();
        links.reverse();
        let span = links.last()?.granted_at - links[0].granted_at;
        let total_wait = links.iter().map(|l| l.wait).sum();
        Some(LockChain {
            lock,
            links,
            span,
            total_wait,
        })
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
    /// Per-lock blocking-chain state.
    chains: BTreeMap<u64, ChainState>,
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

    /// A thread's acquire was granted at `now` after `wait` cycles, so it
    /// requested at `now - wait`; the grant extends the lock's blocking
    /// chain when that was at or before the lock's last release. Returns a
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
        s.max_wait[ix] = s.max_wait[ix].max(wait);
        s.cur_queue = s.cur_queue.saturating_sub(1);
        if !write {
            s.cur_readers += 1;
            s.max_readers = s.max_readers.max(s.cur_readers);
        }
        self.chains.entry(lock).or_default().grant(ChainLink {
            thread,
            write,
            granted_at: now,
            wait,
        });
        self.watchdog_check(lock, thread, write, wait, now, FlagOutcome::Granted)
    }

    /// A thread released `lock` at `now` after holding it for `held` cycles.
    pub fn on_release(&mut self, lock: u64, thread: u32, write: bool, held: u64, now: u64) {
        if !self.enabled {
            return;
        }
        let s = self.locks.entry(lock).or_default();
        s.releases[mode_ix(write)] += 1;
        s.hold.add(held);
        if !write {
            s.cur_readers = s.cur_readers.saturating_sub(1);
        }
        let c = self.chains.entry(lock).or_default();
        if let Some(node) = c.holders.remove(&thread) {
            c.last_release = Some((now, node));
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

    /// Every wait that passed the watchdog threshold by `now`: the
    /// firings so far, then the waits still overdue at `now`.
    pub fn flags_at(&self, now: u64) -> Vec<StarvationFlag> {
        let mut v = self.flags.clone();
        v.extend(self.overdue(now));
        v
    }

    /// The watchdog's verdict at `now`. A writer's wait past the threshold
    /// is starvation; readers' waits alone are not, since a fair lock
    /// still makes readers wait out a writer.
    pub fn watchdog_verdict(&self, now: u64) -> WatchdogVerdict {
        let flags = self.flags_at(now);
        if flags.iter().any(|f| f.write) {
            WatchdogVerdict::Starved
        } else if flags.is_empty() {
            WatchdogVerdict::Ok
        } else {
            WatchdogVerdict::ReaderFlagsOnly
        }
    }

    /// Iterates `(lock address, stats)` in address order.
    pub fn locks(&self) -> impl Iterator<Item = (u64, &LockStat)> + '_ {
        self.locks.iter().map(|(&a, s)| (a, s))
    }

    /// Stats for one lock, if it was ever touched.
    pub fn lock(&self, addr: u64) -> Option<&LockStat> {
        self.locks.get(&addr)
    }

    /// The longest blocking chain of every granted lock, in address order.
    /// A lock whose grants never chained (every grant found it idle)
    /// reports its first grant.
    pub fn chains(&self) -> Vec<LockChain> {
        self.chains
            .iter()
            .filter_map(|(&lock, c)| c.longest(lock))
            .collect()
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
    /// The per-lock stats and chains collected for this run.
    pub stats: &'a LockStats,
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
    render_chains_html(out, &s.stats.chains());
}

fn render_watchdog(out: &mut String, s: &HtmlSeries<'_>) {
    out.push_str("<h3>starvation watchdog</h3>\n");
    let Some(threshold) = s.stats.watchdog_cycles() else {
        out.push_str("<p>not armed</p>\n");
        return;
    };
    let verdict = s.stats.watchdog_verdict(s.end_cycles);
    let class = html::verdict_class(verdict.label());
    if verdict == WatchdogVerdict::Ok {
        let _ = writeln!(
            out,
            "<p class=\"{class}\">OK — no wait exceeded {threshold} cycles</p>"
        );
        return;
    }
    let flags = s.stats.flags();
    let overdue = s.stats.overdue(s.end_cycles);
    let _ = writeln!(
        out,
        "<p class=\"{class}\">{} — {} flags, {} overdue (threshold {threshold} cycles)</p>",
        verdict.label(),
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
    let rows = deepest_first(chains).into_iter().map(|c| {
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
        ls.on_release(0x40, 0, true, 5, 15);
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
        ls.on_release(0x40, 1, false, 90, 96);
        ls.on_release(0x40, 0, false, 100, 104);
        assert!(ls.on_grant(0x40, 2, true, 200, 206).is_none());
        ls.on_release(0x40, 2, true, 50, 256);
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
        ls.on_release(0x40, 0, true, 200, 204);
        ls.on_grant(0x40, 1, true, 400, 404);
        ls.on_release(0x40, 1, true, 150, 554);
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
        ls.on_release(0x40, 0, true, 10, 14);
        let html = render_html(
            "t",
            &[HtmlSeries {
                label: "lcu",
                stats: &ls,
                end_cycles: 100,
            }],
        );
        assert!(html.contains("class=\"ok\">OK"), "{html}");
        assert!(!html.contains("STARVED"));
    }

    #[test]
    fn reader_only_flags_are_not_starvation() {
        let mut ls = LockStats::new();
        ls.enable(Some(100));
        ls.on_request(0x40, 0, false, 0);
        ls.on_grant(0x40, 0, false, 500, 500);
        ls.on_release(0x40, 0, false, 10, 510);
        assert_eq!(ls.watchdog_verdict(600), WatchdogVerdict::ReaderFlagsOnly);
        let html = render_html(
            "t",
            &[HtmlSeries {
                label: "ssb",
                stats: &ls,
                end_cycles: 600,
            }],
        );
        assert!(
            html.contains("class=\"bad\">reader flags only — 1 flags, 0 overdue"),
            "{html}"
        );
        assert!(!html.contains("STARVED"), "{html}");
        // A writer still waiting past the threshold at report time starves.
        ls.on_request(0x40, 1, true, 600);
        assert_eq!(ls.watchdog_verdict(650), WatchdogVerdict::ReaderFlagsOnly);
        assert_eq!(ls.watchdog_verdict(800), WatchdogVerdict::Starved);
        assert_eq!(ls.flags_at(800).len(), 2);
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
                    end_cycles: 500,
                }],
            )
        };
        assert_eq!(mk(), mk());
    }

    /// One machine step of a chain test, taken by a thread on a lock.
    #[derive(Clone, Copy)]
    enum Op {
        /// Request in write (`true`) or read mode.
        Req(bool),
        Grant,
        Rel,
        Fail,
    }

    /// Feeds `(cycle, lock, thread, op)` steps to an enabled `LockStats`
    /// the way the machine does: a grant waited since the thread's request,
    /// and a release held the lock since the thread's grant.
    fn feed(steps: &[(u64, u64, u32, Op)]) -> LockStats {
        let mut ls = LockStats::new();
        ls.enable(None);
        // (lock, thread) → (cycle of the thread's request or grant, write).
        let mut since = BTreeMap::new();
        for &(t, lock, thread, op) in steps {
            let (at, write) = since.get(&(lock, thread)).copied().unwrap_or((t, false));
            match op {
                Op::Req(write) => {
                    since.insert((lock, thread), (t, write));
                    ls.on_request(lock, thread, write, t);
                }
                Op::Grant => {
                    since.insert((lock, thread), (t, write));
                    ls.on_grant(lock, thread, write, t - at, t);
                }
                Op::Rel => ls.on_release(lock, thread, write, t - at, t),
                Op::Fail => _ = ls.on_fail(lock, thread, t),
            }
        }
        ls
    }

    const W: Op = Op::Req(true);
    const R: Op = Op::Req(false);

    #[test]
    fn three_thread_handoff_chain_builds_exactly() {
        let chains = feed(&[
            (0, 0x40, 0, W),
            (1, 0x40, 0, Op::Grant),
            (10, 0x40, 1, W),
            (20, 0x40, 2, W),
            (500, 0x40, 0, Op::Rel),
            (510, 0x40, 1, Op::Grant),
            (900, 0x40, 1, Op::Rel),
            (910, 0x40, 2, Op::Grant),
            (1200, 0x40, 2, Op::Rel),
        ])
        .chains();
        assert_eq!(chains.len(), 1);
        let c = &chains[0];
        assert_eq!(c.lock, 0x40);
        let threads: Vec<u32> = c.links.iter().map(|l| l.thread).collect();
        assert_eq!(threads, vec![0, 1, 2]);
        assert_eq!(c.span, 909);
        assert_eq!(c.total_wait, 1391);
        assert_eq!(c.path(" -> "), "t0:w -> t1:w -> t2:w");
    }

    #[test]
    fn a_long_path_prints_its_ends() {
        let chain = |n: u32| LockChain {
            lock: 0x40,
            links: (0..n)
                .map(|i| ChainLink {
                    thread: i,
                    write: i % 2 == 0,
                    granted_at: u64::from(i),
                    wait: 1,
                })
                .collect(),
            span: u64::from(n),
            total_wait: u64::from(n),
        };
        let full = chain(32).path(",");
        assert_eq!(full.split(',').count(), 32);
        assert!(full.ends_with("t31:r"), "{full}");
        let cut = chain(40).path(",");
        let parts: Vec<&str> = cut.split(',').collect();
        assert_eq!(parts.len(), 33);
        assert_eq!(parts[..2], ["t0:w", "t1:r"]);
        assert_eq!(parts[15..18], ["t15:r", "… 8 more …", "t24:w"]);
        assert_eq!(parts[32], "t39:r");
        assert!(chain(40)
            .describe()
            .starts_with("lock 0x40: depth 40 span 40"));
    }

    #[test]
    fn idle_gap_breaks_the_chain() {
        let chains = feed(&[
            (0, 0x40, 0, W),
            (1, 0x40, 0, Op::Grant),
            (100, 0x40, 0, Op::Rel),
            // Thread 1 only asks after the lock went idle: no handoff.
            (200, 0x40, 1, W),
            (201, 0x40, 1, Op::Grant),
            (300, 0x40, 1, Op::Rel),
        ])
        .chains();
        assert_eq!(chains.len(), 1);
        assert_eq!(chains[0].links.len(), 1);
    }

    #[test]
    fn failed_trylock_does_not_join_a_chain() {
        let chains = feed(&[
            (0, 0x40, 0, W),
            (1, 0x40, 0, Op::Grant),
            (10, 0x40, 1, W),
            (90, 0x40, 1, Op::Fail),
            (100, 0x40, 0, Op::Rel),
            // Thread 1 re-requests after the release; its old (pre-release)
            // request must not make this look like a handoff.
            (150, 0x40, 1, W),
            (151, 0x40, 1, Op::Grant),
            (200, 0x40, 1, Op::Rel),
        ])
        .chains();
        assert_eq!(chains[0].links.len(), 1);
    }

    #[test]
    fn reader_group_members_share_depth() {
        let chains = feed(&[
            (0, 0x40, 0, W),
            (1, 0x40, 0, Op::Grant),
            (10, 0x40, 1, R),
            (11, 0x40, 2, R),
            (100, 0x40, 0, Op::Rel),
            (110, 0x40, 1, Op::Grant),
            (111, 0x40, 2, Op::Grant),
            (200, 0x40, 1, Op::Rel),
            (201, 0x40, 2, Op::Rel),
        ])
        .chains();
        // Both readers chain off the writer: depth 2, not 3.
        assert_eq!(chains[0].links.len(), 2);
        assert_eq!(chains[0].links[0].thread, 0);
        assert!(!chains[0].links[1].write);
    }

    #[test]
    fn locks_tracked_independently() {
        let chains = feed(&[
            (0, 0x40, 0, W),
            (1, 0x40, 0, Op::Grant),
            (0, 0x80, 1, W),
            (1, 0x80, 1, Op::Grant),
            (5, 0x40, 2, W),
            (50, 0x40, 0, Op::Rel),
            (55, 0x40, 2, Op::Grant),
            (60, 0x80, 1, Op::Rel),
            (90, 0x40, 2, Op::Rel),
        ])
        .chains();
        assert_eq!(chains.len(), 2);
        assert_eq!(chains[0].lock, 0x40);
        assert_eq!(chains[0].links.len(), 2);
        assert_eq!(chains[1].lock, 0x80);
        assert_eq!(chains[1].links.len(), 1);
    }

    #[test]
    fn render_orders_deepest_first() {
        let chains = feed(&[
            (0, 0x80, 0, W),
            (1, 0x80, 0, Op::Grant),
            (10, 0x80, 0, Op::Rel),
            (0, 0x40, 1, W),
            (1, 0x40, 1, Op::Grant),
            (2, 0x40, 2, W),
            (20, 0x40, 1, Op::Rel),
            (25, 0x40, 2, Op::Grant),
            (40, 0x40, 2, Op::Rel),
        ])
        .chains();
        let text = render_chains(&chains);
        let p40 = text.find("lock 0x40").unwrap();
        let p80 = text.find("lock 0x80").unwrap();
        assert!(p40 < p80, "{text}");
    }

    #[test]
    fn no_grants_render_explanation() {
        let chains = feed(&[(0, 0x40, 0, W), (5, 0x40, 0, Op::Fail)]).chains();
        assert!(chains.is_empty());
        assert!(render_chains(&chains).contains("no blocking chains"));
    }

    #[test]
    fn a_long_chain_drops_without_recursing() {
        // Far deeper than a recursive drop could go on a test thread's stack.
        const N: u32 = 200_000;
        let mut ls = LockStats::new();
        ls.enable(None);
        ls.on_grant(0x40, 0, true, 0, 0);
        for i in 1..N {
            let t = u64::from(i) * 10;
            ls.on_release(0x40, i - 1, true, 10, t);
            ls.on_grant(0x40, i, true, 5, t);
        }
        assert_eq!(ls.chains()[0].links.len(), N as usize);
        drop(ls);
    }
}
