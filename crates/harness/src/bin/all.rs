//! Regenerates every figure and table. `--jobs <n>` runs figures on
//! worker threads (0 = one per host core); outputs stay byte-identical.
use locksim_harness::obs;

fn main() {
    let args = obs::bin_cli("all", &[obs::BinFlag::number("--jobs")]);
    locksim_harness::run_all(args.jobs());
}
