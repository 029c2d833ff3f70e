//! The trace collector: a bounded ring buffer of [`TraceEvent`]s with
//! Chrome-trace and human-timeline exporters, plus the streaming
//! [`Oracles`] a fault run arms on it.
//!
//! Cost model: when the ring and the oracles are both off (the default),
//! [`Tracer::record`] is one branch — the closure building the event is
//! never called, so argument formatting and field reads are skipped
//! entirely. When the ring is on, a record is a `VecDeque` push plus at
//! most one pop. The buffer starts empty and grows on demand, doubling until
//! it holds `cap` records; after that the oldest record is dropped for each
//! new one and nothing reallocates. Armed oracles see every record, ring on
//! or off. The `trace/records` profiler counter counts the records built,
//! for the ring, the oracles or both.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::{self, Write};

use crate::oracle::Oracles;
use crate::record::{Ep, TraceEvent, TraceKind};

/// Bounded collector of trace records.
///
/// # Example
///
/// ```
/// use locksim_engine::Time;
/// use locksim_trace::{Ep, TraceEvent, TraceKind, Tracer};
///
/// let mut tr = Tracer::default();
/// tr.record(|| unreachable!("disabled tracer never builds events"));
/// tr.enable(1024);
/// tr.record(|| TraceEvent {
///     t: Time::from_cycles(10),
///     ep: Ep::Core(0),
///     kind: TraceKind::TimerFire { label: "retry" },
/// });
/// assert_eq!(tr.len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    enabled: bool,
    cap: usize,
    buf: VecDeque<TraceEvent>,
    dropped: u64,
    oracles: Option<Oracles>,
}

impl Tracer {
    /// A disabled tracer (records are no-ops).
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts collecting, keeping at most `cap` most-recent records.
    pub fn enable(&mut self, cap: usize) {
        self.enabled = true;
        self.cap = cap.max(1);
        self.buf = VecDeque::new();
    }

    /// Stops collecting; already-buffered records remain exportable.
    pub fn disable(&mut self) {
        self.enabled = false;
    }

    /// Whether records are currently collected.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records one event. The closure only runs while the ring or the
    /// oracles are armed, so an idle tracer costs one predictable branch per
    /// call site.
    #[inline]
    pub fn record(&mut self, f: impl FnOnce() -> TraceEvent) {
        if !self.enabled && self.oracles.is_none() {
            return;
        }
        crate::prof::count("trace/records", 1);
        let ev = f();
        if let Some(o) = &mut self.oracles {
            o.observe(&ev);
        }
        if self.enabled {
            self.push(ev);
        }
    }

    /// Feeds every record from now on to `oracles`, ring on or off.
    pub fn arm_oracles(&mut self, oracles: Oracles) {
        self.oracles = Some(oracles);
    }

    /// Stops feeding the armed oracles and returns them.
    pub fn take_oracles(&mut self) -> Option<Oracles> {
        self.oracles.take()
    }

    fn push(&mut self, ev: TraceEvent) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(ev);
    }

    /// Number of buffered records.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Records evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Buffered records, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> + '_ {
        self.buf.iter()
    }

    /// The most recent `n` records concerning `lock` (grant/release/request/
    /// fail/entry-state), oldest first.
    pub fn recent_for_lock(&self, lock: u64, n: usize) -> Vec<&TraceEvent> {
        let mut picked: Vec<&TraceEvent> = self
            .buf
            .iter()
            .rev()
            .filter(|e| e.kind.lock_addr() == Some(lock))
            .take(n)
            .collect();
        picked.reverse();
        picked
    }

    /// Renders the last `n` lock-relevant records as a report for the
    /// exclusion checker's abort message.
    pub fn lock_history_report(&self, lock: u64, n: usize) -> String {
        let picked = self.recent_for_lock(lock, n);
        if picked.is_empty() {
            return format!(
                "no trace history for lock {lock:#x} (tracer {})\n",
                if self.enabled {
                    "enabled but saw no events"
                } else {
                    "disabled; enable tracing to capture protocol history"
                }
            );
        }
        let mut out = format!("last {} trace records for lock {lock:#x}:\n", picked.len());
        for e in picked {
            let _ = writeln!(out, "  {}", render_line(e));
        }
        out
    }

    /// Writes the buffer as Chrome trace-event JSON (an array of instant
    /// events plus track-naming metadata), loadable in Perfetto or
    /// `chrome://tracing`. One simulated cycle maps to 1 µs of trace time.
    pub fn export_chrome(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(b"[")?;
        let mut first = true;
        let mut named: Vec<(u32, u32)> = Vec::new();
        for e in &self.buf {
            let (pid, tid) = track_of(e.ep);
            if !named.contains(&(pid, tid)) {
                named.push((pid, tid));
                write_sep(w, &mut first)?;
                write!(
                    w,
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
                     \"args\":{{\"name\":\"{}\"}}}}",
                    json_escape(&track_name(e.ep))
                )?;
            }
            write_sep(w, &mut first)?;
            write!(
                w,
                "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":{pid},\"tid\":{tid},\
                 \"args\":{{{}}}}}",
                json_escape(e.kind.name()),
                e.t.cycles(),
                args_json(&e.kind)
            )?;
        }
        for (pid, name) in [
            (PID_CORES, "cores"),
            (PID_DIRS, "directories"),
            (PID_THREADS, "threads"),
            (PID_LINKS, "links"),
            (PID_GLOBAL, "machine"),
        ] {
            if named.iter().any(|&(p, _)| p == pid) {
                write_sep(w, &mut first)?;
                write!(
                    w,
                    "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
                     \"args\":{{\"name\":\"{}\"}}}}",
                    json_escape(name)
                )?;
            }
        }
        w.write_all(b"]\n")
    }

    /// Writes the buffer as a human-readable timeline, oldest first.
    pub fn export_timeline(&self, w: &mut impl Write) -> io::Result<()> {
        if self.dropped > 0 {
            writeln!(
                w,
                "... {} earlier records dropped (ring full) ...",
                self.dropped
            )?;
        }
        for e in &self.buf {
            writeln!(w, "{}", render_line(e))?;
        }
        Ok(())
    }
}

const PID_CORES: u32 = 1;
const PID_DIRS: u32 = 2;
const PID_THREADS: u32 = 3;
const PID_LINKS: u32 = 4;
const PID_GLOBAL: u32 = 5;

fn track_of(ep: Ep) -> (u32, u32) {
    match ep {
        Ep::Core(i) => (PID_CORES, i),
        Ep::Dir(i) => (PID_DIRS, i),
        Ep::Thread(i) => (PID_THREADS, i),
        // Flatten the (from, to) pair into one tid per direction.
        Ep::Link(a, b) => (PID_LINKS, (u32::from(a) << 16) | u32::from(b)),
        Ep::Global => (PID_GLOBAL, 0),
    }
}

fn track_name(ep: Ep) -> String {
    match ep {
        Ep::Core(i) => format!("core {i}"),
        Ep::Dir(i) => format!("dir {i}"),
        Ep::Thread(i) => format!("thread {i}"),
        Ep::Link(a, b) => format!("link {a}->{b}"),
        Ep::Global => "machine".to_string(),
    }
}

fn write_sep(w: &mut impl Write, first: &mut bool) -> io::Result<()> {
    if *first {
        *first = false;
        Ok(())
    } else {
        w.write_all(b",\n")
    }
}

/// Escapes `s` for embedding in a JSON string literal: quotes,
/// backslashes, newlines and tabs by name, other control characters as
/// `\uXXXX`. The workspace's one JSON escaper: trace exports and (through
/// `locksim_report::json::escape`) run manifests both use it.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn args_json(kind: &TraceKind) -> String {
    match *kind {
        TraceKind::MsgSend { class, from, to } | TraceKind::MsgRecv { class, from, to } => {
            format!(
                "\"class\":\"{}\",\"from\":{from},\"to\":{to}",
                json_escape(class)
            )
        }
        TraceKind::Coherence { line, from, to } => {
            format!(
                "\"line\":{line},\"from\":\"{}\",\"to\":\"{}\"",
                json_escape(from),
                json_escape(to)
            )
        }
        TraceKind::LockRequest {
            lock,
            thread,
            write,
        } => {
            format!("\"lock\":{lock},\"thread\":{thread},\"write\":{write}")
        }
        TraceKind::LockGrant {
            lock,
            thread,
            write,
            wait,
        } => {
            format!("\"lock\":{lock},\"thread\":{thread},\"write\":{write},\"wait\":{wait}")
        }
        TraceKind::LockRelease {
            lock,
            thread,
            write,
        } => {
            format!("\"lock\":{lock},\"thread\":{thread},\"write\":{write}")
        }
        TraceKind::LockFail { lock, thread } => {
            format!("\"lock\":{lock},\"thread\":{thread}")
        }
        TraceKind::EntryState { lock, state } => {
            format!("\"lock\":{lock},\"state\":\"{}\"", json_escape(state))
        }
        TraceKind::SchedRun { thread, core } | TraceKind::SchedPreempt { thread, core } => {
            format!("\"thread\":{thread},\"core\":{core}")
        }
        TraceKind::SchedMigrate { thread, from, to } => {
            format!("\"thread\":{thread},\"from\":{from},\"to\":{to}")
        }
        TraceKind::Starve {
            lock,
            thread,
            write,
            waited,
        } => {
            format!("\"lock\":{lock},\"thread\":{thread},\"write\":{write},\"waited\":{waited}")
        }
        TraceKind::FaultInject { fault, thread, arg } => {
            format!(
                "\"fault\":\"{}\",\"thread\":{thread},\"arg\":{arg}",
                json_escape(fault)
            )
        }
        TraceKind::Deadlock { lock, waiters } => {
            format!("\"lock\":{lock},\"waiters\":{waiters}")
        }
        TraceKind::OracleViolation {
            oracle,
            lock,
            thread,
            value,
        } => {
            format!(
                "\"oracle\":\"{}\",\"lock\":{lock},\"thread\":{thread},\"value\":{value}",
                json_escape(oracle)
            )
        }
        TraceKind::TimerFire { label } => {
            format!("\"label\":\"{}\"", json_escape(label))
        }
    }
}

fn render_line(e: &TraceEvent) -> String {
    let mut line = format!(
        "[{:>10}] {:<12} {:<13}",
        e.t.cycles(),
        ep_label(e.ep),
        e.kind.name()
    );
    match e.kind {
        TraceKind::MsgSend { class, from, to } | TraceKind::MsgRecv { class, from, to } => {
            let _ = write!(line, "{class} {from}->{to}");
        }
        TraceKind::Coherence { line: l, from, to } => {
            let _ = write!(line, "line {l:#x} {from}->{to}");
        }
        TraceKind::LockRequest {
            lock,
            thread,
            write,
        } => {
            let _ = write!(line, "lock {lock:#x} t{thread} {}", rw(write));
        }
        TraceKind::LockGrant {
            lock,
            thread,
            write,
            wait,
        } => {
            let _ = write!(
                line,
                "lock {lock:#x} t{thread} {} after {wait} cy",
                rw(write)
            );
        }
        TraceKind::LockRelease {
            lock,
            thread,
            write,
        } => {
            let _ = write!(line, "lock {lock:#x} t{thread} {}", rw(write));
        }
        TraceKind::LockFail { lock, thread } => {
            let _ = write!(line, "lock {lock:#x} t{thread}");
        }
        TraceKind::EntryState { lock, state } => {
            let _ = write!(line, "lock {lock:#x} -> {state}");
        }
        TraceKind::SchedRun { thread, core } | TraceKind::SchedPreempt { thread, core } => {
            let _ = write!(line, "t{thread} core {core}");
        }
        TraceKind::SchedMigrate { thread, from, to } => {
            let _ = write!(line, "t{thread} core {from}->{to}");
        }
        TraceKind::Starve {
            lock,
            thread,
            write,
            waited,
        } => {
            let _ = write!(
                line,
                "lock {lock:#x} t{thread} {} waited {waited} cy",
                rw(write)
            );
        }
        TraceKind::FaultInject { fault, thread, arg } => {
            let _ = write!(line, "{fault} t{thread} arg={arg}");
        }
        TraceKind::Deadlock { lock, waiters } => {
            let _ = write!(line, "lock {lock:#x} {waiters} waiters wedged");
        }
        TraceKind::OracleViolation {
            oracle,
            lock,
            thread,
            value,
        } => {
            let _ = write!(line, "{oracle} lock {lock:#x} t{thread} value={value}");
        }
        TraceKind::TimerFire { label } => {
            let _ = write!(line, "{label}");
        }
    }
    line
}

fn ep_label(ep: Ep) -> String {
    match ep {
        Ep::Core(i) => format!("core{i}"),
        Ep::Dir(i) => format!("dir{i}"),
        Ep::Thread(i) => format!("thr{i}"),
        Ep::Link(a, b) => format!("lnk{a}-{b}"),
        Ep::Global => "machine".to_string(),
    }
}

fn rw(write: bool) -> &'static str {
    if write {
        "write"
    } else {
        "read"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locksim_engine::Time;

    fn timer_fire(t: u64, label: &'static str) -> TraceEvent {
        TraceEvent {
            t: Time::from_cycles(t),
            ep: Ep::Global,
            kind: TraceKind::TimerFire { label },
        }
    }

    fn grant(t: u64, lock: u64, thread: u32) -> TraceEvent {
        TraceEvent {
            t: Time::from_cycles(t),
            ep: Ep::Thread(thread),
            kind: TraceKind::LockGrant {
                lock,
                thread,
                write: true,
                wait: 5,
            },
        }
    }

    #[test]
    fn disabled_records_nothing_and_never_calls_closure() {
        let mut tr = Tracer::new();
        tr.record(|| panic!("must not run"));
        assert!(tr.is_empty());
        assert!(!tr.is_enabled());
    }

    #[test]
    fn ring_wraps_keeping_newest() {
        let mut tr = Tracer::new();
        tr.enable(3);
        for i in 0..10 {
            tr.record(|| timer_fire(i, "m"));
        }
        assert_eq!(tr.len(), 3);
        assert_eq!(tr.dropped(), 7);
        let ts: Vec<u64> = tr.events().map(|e| e.t.cycles()).collect();
        assert_eq!(ts, vec![7, 8, 9]);
    }

    #[test]
    fn armed_oracles_see_records_the_ring_does_not_keep() {
        crate::prof::reset();
        crate::prof::enable();
        let mut tr = Tracer::new();
        tr.arm_oracles(Oracles::new(10, 8));
        tr.record(|| TraceEvent {
            t: Time::from_cycles(0),
            ep: Ep::Thread(1),
            kind: TraceKind::LockRequest {
                lock: 0x40,
                thread: 1,
                write: true,
            },
        });
        tr.record(|| grant(50, 0x40, 1));
        assert_eq!(tr.len(), 0);
        let v = tr.take_oracles().expect("armed").finish(50);
        assert_eq!((v.len(), v[0].oracle, v[0].value), (1, "liveness", 50));
        tr.record(|| panic!("idle once the oracles are taken back"));
        crate::prof::disable();
        let built = crate::prof::take_report().counter("trace/records");
        assert_eq!(built, 2, "trace/records counts the records the oracles saw");
    }

    #[test]
    fn cap_one_keeps_only_latest() {
        let mut tr = Tracer::new();
        tr.enable(1);
        tr.record(|| timer_fire(1, "a"));
        tr.record(|| timer_fire(2, "b"));
        let ts: Vec<u64> = tr.events().map(|e| e.t.cycles()).collect();
        assert_eq!(ts, vec![2]);
        assert_eq!(tr.dropped(), 1);
    }

    #[test]
    fn lock_history_filters_and_orders() {
        let mut tr = Tracer::new();
        tr.enable(100);
        tr.record(|| grant(1, 0x40, 0));
        tr.record(|| timer_fire(2, "noise"));
        tr.record(|| grant(3, 0x80, 1));
        tr.record(|| grant(4, 0x40, 2));
        let h = tr.recent_for_lock(0x40, 10);
        let ts: Vec<u64> = h.iter().map(|e| e.t.cycles()).collect();
        assert_eq!(ts, vec![1, 4]);
        let h1 = tr.recent_for_lock(0x40, 1);
        assert_eq!(h1.len(), 1);
        assert_eq!(h1[0].t.cycles(), 4);
        let report = tr.lock_history_report(0x40, 10);
        assert!(report.contains("lock 0x40"), "{report}");
        assert!(!report.contains("0x80"), "{report}");
        let none = Tracer::new().lock_history_report(0x40, 10);
        assert!(
            none.starts_with("no trace history") && none.ends_with('\n'),
            "{none}"
        );
    }

    #[test]
    fn chrome_export_is_wellformed_json() {
        let mut tr = Tracer::new();
        tr.enable(100);
        tr.record(|| grant(1, 0x40, 0));
        tr.record(|| TraceEvent {
            t: Time::from_cycles(2),
            ep: Ep::Link(0, 3),
            kind: TraceKind::MsgSend {
                class: "control",
                from: 0,
                to: 3,
            },
        });
        let mut out = Vec::new();
        tr.export_chrome(&mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.starts_with('[') && s.trim_end().ends_with(']'), "{s}");
        // Balanced braces and no trailing comma before the close.
        let opens = s.matches('{').count();
        let closes = s.matches('}').count();
        assert_eq!(opens, closes, "{s}");
        assert!(!s.contains(",]"), "{s}");
        assert!(s.contains("\"ph\":\"i\""));
        assert!(s.contains("thread_name"));
        assert!(s.contains("process_name"));
    }

    #[test]
    fn timeline_mentions_drops() {
        let mut tr = Tracer::new();
        tr.enable(2);
        for i in 0..5 {
            tr.record(|| timer_fire(i, "x"));
        }
        let mut out = Vec::new();
        tr.export_timeline(&mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("3 earlier records dropped"), "{s}");
    }

    #[test]
    fn json_escape_escapes() {
        assert_eq!(
            json_escape("a\"b\\c\nd\te\u{1}"),
            "a\\\"b\\\\c\\nd\\te\\u0001"
        );
    }
}
