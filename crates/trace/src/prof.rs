//! Host-side self-profiler: scoped span timers and counters over the
//! simulator's *own* execution (host wall time, not simulated cycles).
//!
//! The simulated machine is already observable (trace ring, metrics,
//! lockstat); this module observes the simulator. Spans nest into a call
//! tree keyed by `&'static str` labels, aggregating call counts and
//! inclusive host time; exclusive time falls out at report time. The
//! report renders as a hierarchical table and as collapsed-stack text
//! (`a;b;c <nanos>` per line) loadable by flamegraph.pl or speedscope.
//!
//! # Cost model
//!
//! Profiling is opt-in ([`enable`], the harness `--self-profile` flag, or
//! the `LOCKSIM_SELF_PROFILE` env var). When disabled — the default —
//! [`span`] and [`count`] are one thread-local flag load and a predictable
//! branch: no clock read, no allocation. Host-time measurement never feeds
//! back into the simulation, so simulated outputs are byte-identical with
//! profiling on or off (a golden test in the harness pins this).
//!
//! # Threading
//!
//! Everything is per-thread: [`enable`] and [`disable`] switch recording
//! for the calling thread only, and span/counter data is thread-local (the
//! simulator is single-threaded per world). [`report`] and [`take_report`]
//! return the calling thread's data only. Two threads profiling at once
//! never see each other's switch or spans.
//!
//! # Example
//!
//! ```
//! use locksim_trace::prof;
//!
//! prof::reset();
//! prof::enable();
//! {
//!     let _outer = prof::span("run");
//!     {
//!         let _inner = prof::span("step");
//!         prof::count("events", 3);
//!     }
//! }
//! prof::disable();
//! let report = prof::take_report();
//! assert_eq!(report.counter("events"), 3);
//! assert!(report.collapsed().contains("run;step"));
//! ```

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::time::Instant;

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
}

/// Whether span/counter recording is currently on for this thread.
#[inline]
pub fn enabled() -> bool {
    ENABLED.with(Cell::get)
}

/// Turns recording on for the calling thread.
pub fn enable() {
    ENABLED.with(|e| e.set(true));
}

/// Turns recording off for the calling thread; already-aggregated data
/// stays until [`reset`] or [`take_report`].
pub fn disable() {
    ENABLED.with(|e| e.set(false));
}

/// Discards the calling thread's aggregated data and span stack.
pub fn reset() {
    PROF.with(|p| *p.borrow_mut() = ProfData::default());
}

/// One node of the aggregated span tree.
#[derive(Debug, Clone)]
struct Node {
    name: &'static str,
    parent: Option<usize>,
    /// Child node indices; linear scan — fan-out per node is small.
    children: Vec<usize>,
    calls: u64,
    /// Inclusive host nanoseconds.
    total_ns: u64,
    /// Nanoseconds attributed to child spans (for exclusive time).
    child_ns: u64,
}

#[derive(Debug, Default)]
struct ProfData {
    /// Span tree nodes; roots are the nodes with `parent == None`.
    nodes: Vec<Node>,
    /// Indices of open spans, innermost last.
    stack: Vec<usize>,
    counters: Vec<(&'static str, u64)>,
}

impl ProfData {
    fn enter(&mut self, name: &'static str) -> usize {
        let parent = self.stack.last().copied();
        let found = match parent {
            Some(p) => self.nodes[p]
                .children
                .iter()
                .copied()
                .find(|&c| self.nodes[c].name == name),
            None => self
                .nodes
                .iter()
                .position(|n| n.parent.is_none() && n.name == name),
        };
        let idx = found.unwrap_or_else(|| {
            let idx = self.nodes.len();
            self.nodes.push(Node {
                name,
                parent,
                children: Vec::new(),
                calls: 0,
                total_ns: 0,
                child_ns: 0,
            });
            if let Some(p) = parent {
                self.nodes[p].children.push(idx);
            }
            idx
        });
        self.stack.push(idx);
        idx
    }

    fn exit(&mut self, idx: usize, elapsed_ns: u64) {
        // Tolerate a reset between enter and exit: the index may be stale.
        if self.stack.last() == Some(&idx) {
            self.stack.pop();
        } else {
            return;
        }
        let node = &mut self.nodes[idx];
        node.calls += 1;
        node.total_ns += elapsed_ns;
        if let Some(p) = node.parent {
            self.nodes[p].child_ns += elapsed_ns;
        }
    }

    fn count(&mut self, name: &'static str, n: u64) {
        match self.counters.iter_mut().find(|(k, _)| *k == name) {
            Some((_, v)) => *v += n,
            None => self.counters.push((name, n)),
        }
    }
}

thread_local! {
    static PROF: RefCell<ProfData> = RefCell::new(ProfData::default());
}

/// An open span; records on drop. Returned by [`span`].
#[must_use = "a span measures the scope it is bound to; bind it to a variable"]
pub struct Span {
    /// `None` when profiling was disabled at entry: drop is a no-op.
    armed: Option<(usize, Instant)>,
}

/// Opens a scoped span named `name` under the innermost open span of this
/// thread. When profiling is disabled this is one thread-local load.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span { armed: None };
    }
    span_slow(name)
}

#[cold]
fn span_slow(name: &'static str) -> Span {
    let idx = PROF.with(|p| p.borrow_mut().enter(name));
    Span {
        armed: Some((idx, Instant::now())),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((idx, start)) = self.armed.take() {
            let ns = start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
            PROF.with(|p| p.borrow_mut().exit(idx, ns));
        }
    }
}

/// Adds `n` to profiler counter `name`. One thread-local load when off.
#[inline]
pub fn count(name: &'static str, n: u64) {
    if !enabled() {
        return;
    }
    PROF.with(|p| p.borrow_mut().count(name, n));
}

/// One row of a rendered profile: a span with its aggregate times.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRow {
    /// Label path from root, `;`-joined (collapsed-stack key).
    pub path: String,
    /// Nesting depth (0 = root).
    pub depth: usize,
    /// Span label.
    pub name: &'static str,
    /// Number of completed executions.
    pub calls: u64,
    /// Inclusive host nanoseconds.
    pub total_ns: u64,
    /// Exclusive host nanoseconds (inclusive minus child spans).
    pub self_ns: u64,
}

/// A snapshot of one thread's aggregated profile.
#[derive(Debug, Clone, Default)]
pub struct ProfileReport {
    /// Spans in depth-first order (parents before children).
    pub spans: Vec<SpanRow>,
    /// Profiler counters in first-recorded order.
    pub counters: Vec<(&'static str, u64)>,
}

impl ProfileReport {
    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.counters.is_empty()
    }

    /// Value of counter `name` (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| *k == name)
            .map_or(0, |&(_, v)| v)
    }

    /// The span row at `path` (`;`-joined labels), if recorded.
    pub fn span(&self, path: &str) -> Option<&SpanRow> {
        self.spans.iter().find(|s| s.path == path)
    }

    /// Collapsed-stack text: one `a;b;c <self_ns>` line per span with
    /// nonzero exclusive time, flamegraph.pl / speedscope compatible.
    pub fn collapsed(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            if s.self_ns > 0 {
                let _ = writeln!(out, "{} {}", s.path, s.self_ns);
            }
        }
        out
    }

    /// Hierarchical text table: span, calls, inclusive/exclusive ms, then
    /// counters.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<44} {:>12} {:>12} {:>12}",
            "span", "calls", "incl ms", "self ms"
        );
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{:<44} {:>12} {:>12.3} {:>12.3}",
                format!("{}{}", "  ".repeat(s.depth), s.name),
                s.calls,
                s.total_ns as f64 / 1e6,
                s.self_ns as f64 / 1e6,
            );
        }
        for (name, v) in &self.counters {
            let _ = writeln!(out, "counter {name} {v}");
        }
        out
    }
}

fn build_report(data: &ProfData) -> ProfileReport {
    fn visit(data: &ProfData, idx: usize, prefix: &str, depth: usize, out: &mut Vec<SpanRow>) {
        let n = &data.nodes[idx];
        let path = if prefix.is_empty() {
            n.name.to_string()
        } else {
            format!("{prefix};{}", n.name)
        };
        out.push(SpanRow {
            path: path.clone(),
            depth,
            name: n.name,
            calls: n.calls,
            total_ns: n.total_ns,
            self_ns: n.total_ns.saturating_sub(n.child_ns),
        });
        for &c in &n.children {
            visit(data, c, &path, depth + 1, out);
        }
    }
    let mut spans = Vec::new();
    for (i, n) in data.nodes.iter().enumerate() {
        if n.parent.is_none() {
            visit(data, i, "", 0, &mut spans);
        }
    }
    ProfileReport {
        spans,
        counters: data.counters.clone(),
    }
}

/// Snapshots the calling thread's profile without clearing it.
pub fn report() -> ProfileReport {
    PROF.with(|p| build_report(&p.borrow()))
}

/// Snapshots the calling thread's profile and clears it.
pub fn take_report() -> ProfileReport {
    PROF.with(|p| {
        let mut p = p.borrow_mut();
        let r = build_report(&p);
        *p = ProfData::default();
        r
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Starts from a clean switch and empty data, whichever thread the
    /// test harness runs this test on.
    fn fresh() {
        disable();
        reset();
    }

    #[test]
    fn disabled_records_nothing() {
        fresh();
        {
            let _s = span("never");
            count("nope", 5);
        }
        let r = take_report();
        assert!(r.is_empty(), "{r:?}");
    }

    #[test]
    fn spans_nest_and_aggregate() {
        fresh();
        enable();
        for _ in 0..3 {
            let _a = span("a");
            let _b = span("b");
            count("inner", 1);
        }
        {
            let _a = span("a");
        }
        disable();
        let r = take_report();
        let a = r.span("a").expect("root span");
        assert_eq!(a.calls, 4);
        let b = r.span("a;b").expect("nested span");
        assert_eq!(b.calls, 3);
        assert_eq!(b.depth, 1);
        assert!(a.total_ns >= b.total_ns, "inclusive covers children");
        assert_eq!(r.counter("inner"), 3);
    }

    #[test]
    fn same_name_under_different_parents_is_distinct() {
        fresh();
        enable();
        {
            let _x = span("x");
            let _s = span("step");
        }
        {
            let _y = span("y");
            let _s = span("step");
        }
        disable();
        let r = take_report();
        assert!(r.span("x;step").is_some());
        assert!(r.span("y;step").is_some());
        assert!(r.span("step").is_none(), "no root-level step");
    }

    #[test]
    fn collapsed_and_table_render() {
        fresh();
        enable();
        {
            let _a = span("root");
            std::thread::sleep(std::time::Duration::from_millis(1));
            let _b = span("leaf");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        disable();
        let r = take_report();
        let c = r.collapsed();
        assert!(c.contains("root;leaf "), "{c}");
        let t = r.render_table();
        assert!(t.contains("root"), "{t}");
        assert!(t.contains("  leaf"), "indented child: {t}");
    }

    #[test]
    fn take_report_clears() {
        fresh();
        enable();
        {
            let _a = span("once");
        }
        disable();
        assert!(!take_report().is_empty());
        assert!(take_report().is_empty());
    }

    #[test]
    fn enable_is_per_thread() {
        fresh();
        enable();
        let elsewhere = std::thread::spawn(|| {
            drop(span("elsewhere"));
            (enabled(), take_report().is_empty())
        });
        let seen = elsewhere.join().expect("profiling thread");
        assert_eq!(seen, (false, true), "enable leaked to another thread");
        assert!(enabled(), "another thread switched this one off");
        disable();
    }

    #[test]
    fn reset_mid_span_is_tolerated() {
        fresh();
        enable();
        let s = span("outer");
        reset();
        drop(s); // stale index: must not panic or record
        disable();
        assert!(take_report().spans.iter().all(|r| r.calls == 0));
    }
}
