//! `report`: aggregates `results/runs/` manifests into one self-contained
//! HTML dashboard.

fn main() {
    locksim::report::cli_main();
}
