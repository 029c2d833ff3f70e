//! Regenerates every figure and table. `--jobs <n>` runs figures on
//! worker threads (0 = one per host core); outputs stay byte-identical.
use locksim_harness::obs;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = [
        obs::BinFlag::switch("--quick"),
        obs::BinFlag::value("--jobs"),
    ];
    let (opts, extras) = match obs::parse_bin_cli(&args, &flags) {
        Ok(parsed) => parsed,
        Err(msg) => usage_exit(&msg),
    };
    if extras.contains_key("--quick") {
        std::env::set_var("LOCKSIM_QUICK", "1");
    }
    obs::apply_opts(&opts);
    let jobs = extras
        .get("--jobs")
        .map(|v| locksim_harness::sweep::parse_jobs(v).unwrap_or_else(|e| usage_exit(&e)))
        .unwrap_or(1);
    locksim_harness::run_all(jobs);
}

fn usage_exit(msg: &str) -> ! {
    eprintln!(
        "error: {msg}\nusage: all [--quick] [--jobs <n|0=cores>] [--trace <path>] \
         [--trace-cap <records>] [--lockstat <path>] [--watchdog-cycles <n>] \
         [--self-profile <path>]"
    );
    std::process::exit(2);
}
