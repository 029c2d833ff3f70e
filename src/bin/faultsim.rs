//! Fault-injection matrix: every lock backend × every fault class
//! (suspension, migration, FLT eviction, LRT pressure, wire delay), each
//! cell judged by the liveness/fairness/exclusion oracles. Writes a
//! pass/fail table to stdout plus `results/faultsim.csv` and
//! `results/faultsim.html`.
//!
//! ```text
//! cargo run --release --bin faultsim -- --quick
//! cargo run --release --bin faultsim -- --seed 42 --csv results/faultsim.csv
//! ```

fn main() {
    locksim::harness::faultsim::cli_main();
}
