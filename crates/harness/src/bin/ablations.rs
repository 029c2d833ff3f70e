//! Regenerates the LCU design-choice ablation table (simulated cycles).
fn main() {
    locksim_harness::run_bin("ablations", locksim_harness::figs::ablations);
}
