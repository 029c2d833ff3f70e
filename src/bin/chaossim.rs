//! Chaos soak runner: sweep fuzz seeds through randomized fault plans with
//! the quiescence deadlock detector armed, shrink every violating plan to
//! a locally-minimal repro, and write `results/chaossim.csv` /
//! `results/chaossim.html` (plus corpus entries with `--corpus-out`).
//!
//! ```text
//! cargo run --release --bin chaossim -- --quick
//! cargo run --release --bin chaossim -- --seed-start 0 --seeds 100
//! cargo run --release --bin chaossim -- --seeds 48 --corpus-out tests/corpus
//! ```

fn main() {
    locksim::harness::chaos::cli_main();
}
