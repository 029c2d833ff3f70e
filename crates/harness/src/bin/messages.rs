//! Regenerates the per-CS message-cost table (Figure 1's "transfer
//! messages" column, measured) from each run's metrics snapshot.
fn main() {
    locksim_harness::run_bin("messages", locksim_harness::figs::messages);
}
