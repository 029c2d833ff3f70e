//! Per-lock contention profile of the SSB-vs-LCU writer-starvation
//! contrast: per-lock stats tables, the starvation-watchdog verdict, the
//! longest blocking chains, and a self-contained HTML report.
//!
//! ```text
//! cargo run --release --bin lockstat -- --quick
//! cargo run --release --bin lockstat -- --lockstat results/lockstat.html
//! ```

fn main() {
    locksim::harness::lockstat::cli_main();
}
