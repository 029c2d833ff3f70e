//! Compares every lock implementation on the paper's lock-transfer
//! microbenchmark (the workload behind Figures 9 and 10): one short
//! critical section hammered by 16 threads on Model A.
//!
//! ```text
//! cargo run --release --example lock_comparison
//! ```

use locksim::harness::{run_microbench, BackendKind, ModelSel};

fn main() {
    println!("16 threads, Model A, 5000 critical sections, 100% / 25% writes\n");
    println!(
        "{:<8} {:>14} {:>14}",
        "backend", "cy/CS (100%W)", "cy/CS (25%W)"
    );
    for b in BackendKind::ALL {
        let w100 = run_microbench(ModelSel::A, b, 16, 100, 5_000, 42).cycles_per_cs;
        // Only reader-writer capable backends run the 25%-writes mix.
        let w25 = if b.reads() {
            format!(
                "{:14.1}",
                run_microbench(ModelSel::A, b, 16, 25, 5_000, 42).cycles_per_cs
            )
        } else {
            format!("{:>14}", "-")
        };
        println!("{:<8} {:>14.1} {}", b.label(), w100, w25);
    }
    println!("\nThe LCU's direct LCU-to-LCU transfer keeps it within ~2x of the");
    println!("ideal zero-cost lock; software queue locks pay two coherence");
    println!("transactions per handoff, and TAS/TATAS collapse under contention.");
}
