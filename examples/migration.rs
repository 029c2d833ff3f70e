//! Thread migration with live lock state (paper §III-C): a waiter and a
//! holder both migrate mid-operation; the LCU's grant timeout, request
//! re-issue and remote-release forwarding keep everything correct.
//!
//! ```text
//! cargo run --release --example migration
//! ```

use locksim::core::LcuBackend;
use locksim::engine::Time;
use locksim::machine::{testing::ScriptProgram, Action, MachineConfig, Mode, ThreadId, World};

fn main() {
    let mut w = World::new(MachineConfig::model_a(8), Box::new(LcuBackend::new()), 3);
    let lock = w.mach().alloc().alloc_line();

    // t0 takes the lock and holds it for 60k cycles.
    w.spawn(Box::new(ScriptProgram::new(vec![
        Action::Acquire {
            lock,
            mode: Mode::Write,
            try_for: None,
        },
        Action::Compute(60_000),
        Action::Release {
            lock,
            mode: Mode::Write,
        },
    ])));
    // t1 queues behind it.
    w.spawn(Box::new(ScriptProgram::new(vec![
        Action::Compute(1_000),
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

    // Let both threads reach steady state, then migrate them:
    // the HOLDER moves to core 6 (its release will arrive from a foreign
    // LCU and be forwarded to the queue), and the WAITER moves to core 7
    // (its enqueued entry times out and passes the grant through; the
    // request is re-issued from the new core).
    w.run_for(Some(Time::from_cycles(20_000)));
    assert!(w.migrate(ThreadId(0), 6));
    assert!(w.migrate(ThreadId(1), 7));
    w.run_to_completion();

    let c = w.report_counters();
    println!("simulated cycles        : {}", w.mach().now());
    println!("locks granted           : {}", c.get("locks_granted"));
    println!("migrations              : {}", c.get("migrations"));
    println!(
        "remote releases sent    : {}",
        c.get("lcu_remote_release_sent")
    );
    println!("requests re-issued      : {}", c.get("lcu_reissues"));
    println!("grant timeouts          : {}", c.get("lcu_grant_timeouts"));
    assert_eq!(
        c.get("locks_granted"),
        2,
        "both threads must still get the lock"
    );
}
