//! Tests of the services `Mach` provides to lock backends: wire messages,
//! timers, backend-issued memory operations (including deferral across
//! preemption), and line watches (including the immediate-fire path).

use std::cell::RefCell;
use std::rc::Rc;

use locksim_engine::stats::Counters;
use locksim_engine::Cycles;
use locksim_machine::testing::ScriptProgram;
use locksim_machine::{
    Action, Addr, Ep, InFlight, LineAddr, LockBackend, Mach, MachineConfig, MemKind, Mode,
    ThreadId, World,
};
use locksim_topo::MsgClass;

/// Shared observation log for the probe backend.
#[derive(Debug, Default)]
struct Log {
    events: Vec<String>,
}

/// A backend that grants instantly but exercises every Mach service and
/// records what it observes. A fork shares the log.
#[derive(Clone)]
struct ProbeBackend {
    log: Rc<RefCell<Log>>,
    /// Addresses to read via `backend_mem` on the first acquire.
    probe_addr: Option<Addr>,
    /// Line to watch on the first acquire.
    watch: Option<Addr>,
    /// Wire messages in flight, keyed by their tokens.
    wire: InFlight<(ThreadId, Addr)>,
}

impl ProbeBackend {
    fn new(log: Rc<RefCell<Log>>) -> Self {
        ProbeBackend {
            log,
            probe_addr: None,
            watch: None,
            wire: InFlight::new(),
        }
    }
}

impl LockBackend for ProbeBackend {
    fn name(&self) -> &'static str {
        "probe"
    }

    fn fork(&self) -> Box<dyn LockBackend> {
        Box::new(self.clone())
    }

    fn on_acquire(
        &mut self,
        m: &mut Mach,
        t: ThreadId,
        lock: Addr,
        _mode: Mode,
        _try_for: Option<Cycles>,
    ) {
        self.log
            .borrow_mut()
            .events
            .push(format!("acquire t{}", t.0));
        if let Some(a) = self.probe_addr.take() {
            m.backend_mem(t, a, MemKind::Load);
        }
        if let Some(a) = self.watch.take() {
            m.watch_line(t, a.line());
        }
        // Bounce a wire message to ourselves via the lock's home.
        let core = m.core_of(t).unwrap().0 as usize;
        let home = m.home_of(lock);
        let token = self.wire.put((t, lock));
        m.send_wire(Ep::Core(core), Ep::Mem(home), MsgClass::Control, 0, token);
        m.set_timer(50, t.0 as u64);
    }

    fn on_release(&mut self, m: &mut Mach, t: ThreadId, _lock: Addr, _mode: Mode) {
        self.log
            .borrow_mut()
            .events
            .push(format!("release t{}", t.0));
        m.complete_release(t, 0);
    }

    fn on_wire(&mut self, m: &mut Mach, token: u64) {
        let (t, _lock) = self.wire.take(token);
        self.log.borrow_mut().events.push(format!("wire t{}", t.0));
        m.grant_lock(t, 0);
    }

    fn on_timer(&mut self, _m: &mut Mach, token: u64) {
        self.log.borrow_mut().events.push(format!("timer {token}"));
    }

    fn on_mem_value(&mut self, _m: &mut Mach, t: ThreadId, value: u64) {
        self.log
            .borrow_mut()
            .events
            .push(format!("mem t{} v{value}", t.0));
    }

    fn on_line_invalidated(&mut self, _m: &mut Mach, t: ThreadId, _line: LineAddr) {
        self.log.borrow_mut().events.push(format!("inval t{}", t.0));
    }

    fn counters(&self) -> Counters {
        Counters::new()
    }
}

fn world_with_probe(log: Rc<RefCell<Log>>, make: impl FnOnce(&mut ProbeBackend)) -> World {
    let mut be = ProbeBackend::new(log);
    make(&mut be);
    World::new(MachineConfig::model_a(4), Box::new(be), 1)
}

#[test]
fn wire_round_trip_grants_and_timer_fires() {
    let log = Rc::new(RefCell::new(Log::default()));
    let mut w = world_with_probe(log.clone(), |_| {});
    let lock = w.mach().alloc().alloc_line();
    w.spawn(Box::new(ScriptProgram::new(vec![
        Action::Acquire {
            lock,
            mode: Mode::Write,
            try_for: None,
        },
        Action::Release {
            lock,
            mode: Mode::Write,
        },
    ])));
    w.run_to_completion();
    let ev = log.borrow().events.clone();
    assert_eq!(ev[0], "acquire t0");
    assert!(ev.contains(&"wire t0".to_string()));
    assert!(ev.contains(&"timer 0".to_string()));
    assert!(ev.contains(&"release t0".to_string()));
}

#[test]
fn backend_mem_returns_poked_value() {
    let log = Rc::new(RefCell::new(Log::default()));
    let mut w = world_with_probe(log.clone(), |be| be.probe_addr = Some(Addr(0x1000)));
    w.mach().mem_poke(Addr(0x1000), 1234);
    let lock = w.mach().alloc().alloc_line();
    w.spawn(Box::new(ScriptProgram::new(vec![
        Action::Acquire {
            lock,
            mode: Mode::Write,
            try_for: None,
        },
        // Stay alive until the backend's probe load completes (the run
        // stops as soon as every thread finishes).
        Action::Compute(5_000),
        Action::Release {
            lock,
            mode: Mode::Write,
        },
    ])));
    w.run_to_completion();
    assert!(
        log.borrow().events.contains(&"mem t0 v1234".to_string()),
        "events: {:?}",
        log.borrow().events
    );
}

#[test]
fn watch_on_uncached_line_fires_immediately() {
    // The probe watches a line its core has never cached: the machine must
    // deliver an immediate wake rather than letting it hang.
    let log = Rc::new(RefCell::new(Log::default()));
    let mut w = world_with_probe(log.clone(), |be| be.watch = Some(Addr(0x2000)));
    let lock = w.mach().alloc().alloc_line();
    w.spawn(Box::new(ScriptProgram::new(vec![
        Action::Acquire {
            lock,
            mode: Mode::Write,
            try_for: None,
        },
        Action::Release {
            lock,
            mode: Mode::Write,
        },
    ])));
    w.run_to_completion();
    assert!(log.borrow().events.contains(&"inval t0".to_string()));
    assert_eq!(w.report_counters().get("watches_fired_immediately"), 1);
}

#[test]
fn watch_fires_on_remote_write() {
    // Thread 0's program caches a line; thread 1 writes it; the watch that
    // the probe registered for thread 0 must fire.
    let log = Rc::new(RefCell::new(Log::default()));
    let shared = Addr(0x3000);
    let mut w = world_with_probe(log.clone(), |_| {});
    let lock = w.mach().alloc().alloc_line();
    // t0: read the line (caches it), then acquire (probe arms the watch on
    // the now-cached line via probe_addr trick below), then wait.
    // Simpler: t0 reads, then the test registers the watch through a
    // second acquire wired by the probe. Instead we use the program to
    // cache the line and the probe's `watch` hook at acquire time.
    w.spawn(Box::new(ScriptProgram::new(vec![
        Action::Read(shared),
        Action::Acquire {
            lock,
            mode: Mode::Write,
            try_for: None,
        },
        Action::Compute(50_000),
        Action::Release {
            lock,
            mode: Mode::Write,
        },
    ])));
    // t1 writes the shared line after a delay.
    w.spawn(Box::new(ScriptProgram::new(vec![
        Action::Compute(5_000),
        Action::Write(shared, 9),
    ])));
    // Arm the watch when t0 acquires (line already cached by then).
    // Rebuild the world with the watch configured:
    drop(w);
    let log2 = Rc::new(RefCell::new(Log::default()));
    let mut w = world_with_probe(log2.clone(), |be| be.watch = Some(shared));
    let lock = w.mach().alloc().alloc_line();
    w.spawn(Box::new(ScriptProgram::new(vec![
        Action::Read(shared),
        Action::Acquire {
            lock,
            mode: Mode::Write,
            try_for: None,
        },
        Action::Compute(50_000),
        Action::Release {
            lock,
            mode: Mode::Write,
        },
    ])));
    w.spawn(Box::new(ScriptProgram::new(vec![
        Action::Compute(5_000),
        Action::Write(shared, 9),
    ])));
    w.run_to_completion();
    assert!(
        log2.borrow().events.contains(&"inval t0".to_string()),
        "events: {:?}",
        log2.borrow().events
    );
    assert_eq!(w.report_counters().get("watches_fired_immediately"), 0);
}

#[test]
fn trace_records_bounded_events() {
    let log = Rc::new(RefCell::new(Log::default()));
    let mut w = world_with_probe(log, |_| {});
    w.enable_trace(8);
    let lock = w.mach().alloc().alloc_line();
    w.spawn(Box::new(ScriptProgram::new(vec![
        Action::Acquire {
            lock,
            mode: Mode::Write,
            try_for: None,
        },
        Action::Compute(1_000),
        Action::Release {
            lock,
            mode: Mode::Write,
        },
    ])));
    w.run_to_completion();
    let entries = w.trace_entries();
    assert!(!entries.is_empty());
    assert!(entries.len() <= 8, "bound respected: {}", entries.len());
    // Timestamps are nondecreasing.
    for pair in entries.windows(2) {
        assert!(pair[0].0 <= pair[1].0);
    }
    // Events render as useful debug text.
    assert!(entries
        .iter()
        .any(|(_, e)| e.contains("Lock") || e.contains("Sched")));
}

#[test]
fn trace_captures_full_lock_lifecycle() {
    let log = Rc::new(RefCell::new(Log::default()));
    let mut w = world_with_probe(log, |_| {});
    w.enable_trace(4096);
    let lock = w.mach().alloc().alloc_line();
    w.spawn(Box::new(ScriptProgram::new(vec![
        Action::Acquire {
            lock,
            mode: Mode::Write,
            try_for: None,
        },
        Action::Compute(1_000),
        Action::Release {
            lock,
            mode: Mode::Write,
        },
    ])));
    w.run_to_completion();
    let kinds: Vec<&'static str> = w
        .mach_ref()
        .tracer()
        .events()
        .filter(|e| e.kind.lock_addr() == Some(lock.0))
        .map(|e| e.kind.name())
        .collect();
    assert_eq!(kinds, ["lock_request", "lock_grant", "lock_release"]);
    // The grant/hold/release also feed the metrics registry.
    let snap = w.metrics_snapshot();
    assert_eq!(snap.counters.get("locks_granted"), 1);
    assert!(snap
        .hists
        .iter()
        .any(|(name, t)| *name == "lock_wait_cycles" && t.count == 1));
    assert!(snap
        .hists
        .iter()
        .any(|(name, t)| *name == "lock_hold_cycles" && t.count == 1));
}

#[test]
fn dissection_buckets_sum_to_thread_lifetime() {
    let log = Rc::new(RefCell::new(Log::default()));
    let mut w = world_with_probe(log, |_| {});
    let lock = w.mach().alloc().alloc_line();
    let t = w.spawn(Box::new(ScriptProgram::new(vec![
        Action::Compute(500),
        Action::Acquire {
            lock,
            mode: Mode::Write,
            try_for: None,
        },
        Action::Compute(1_000),
        Action::Release {
            lock,
            mode: Mode::Write,
        },
        Action::Compute(200),
    ])));
    w.run_to_completion();
    let d = w.thread_dissection(t);
    let end = w.mach_ref().now();
    assert_eq!(
        d.total(),
        end.cycles(),
        "buckets must sum to the thread's lifetime"
    );
    assert!(d.compute >= 700, "both compute phases accounted: {d:?}");
    assert!(
        d.lock_hold >= 1_000,
        "critical section counts as hold: {d:?}"
    );
}

/// A backend with no exclusion logic and no checker of its own: it grants
/// every acquire on arrival.
struct GrantAllBackend;

impl LockBackend for GrantAllBackend {
    fn name(&self) -> &'static str {
        "grant-all"
    }
    fn fork(&self) -> Box<dyn LockBackend> {
        Box::new(GrantAllBackend)
    }
    fn on_acquire(&mut self, m: &mut Mach, t: ThreadId, _l: Addr, _mo: Mode, _tf: Option<Cycles>) {
        m.grant_lock(t, 0);
    }
    fn on_release(&mut self, m: &mut Mach, t: ThreadId, _l: Addr, _mo: Mode) {
        m.complete_release(t, 0);
    }
}

#[test]
fn machine_checks_exclusion_for_every_backend() {
    // The machine, not the backend, owns the exclusion check: a second
    // overlapping write grant aborts the run with the lock's history.
    let mut w = World::new(MachineConfig::model_a(4), Box::new(GrantAllBackend), 1);
    w.enable_trace(64);
    let lock = w.mach().alloc().alloc_line();
    let (acquire, release) = (
        Action::Acquire {
            lock,
            mode: Mode::Write,
            try_for: None,
        },
        Action::Release {
            lock,
            mode: Mode::Write,
        },
    );
    for _ in 0..2 {
        let script = vec![acquire, Action::Compute(1_000), release];
        w.spawn(Box::new(ScriptProgram::new(script)));
    }
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| w.run_to_completion()))
        .expect_err("overlapping write grants must abort the run");
    let msg = err.downcast_ref::<String>().expect("string panic");
    assert!(msg.contains("exclusion violation"), "{msg}");
    let history = format!("trace records for lock {:#x}", lock.0);
    assert!(
        msg.contains(&history) && msg.contains("lock_grant"),
        "{msg}"
    );
}
