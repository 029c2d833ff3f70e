//! The metric catalogue: every name `lockbench` reports, its unit, which
//! direction is better, the regression bound of each end-to-end metric,
//! and, for each per-layer metric, the end-to-end metric and workload it
//! should move. `BENCHMARK.json` at the repository root lists the same
//! names; a test keeps the two in step.

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, sizes, counts of work).
    Lower,
    /// Larger values are better (ratios of useful outcomes).
    Higher,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Metric name, as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit of the value.
    pub unit: &'static str,
    /// Which direction is an improvement.
    pub better: Better,
    /// End-to-end only: how far the median may worsen, as a share of the
    /// baseline median, before `compare` reports a regression.
    pub bound: f64,
    /// Whether `BENCHMARK.json` lists the metric. End-to-end metrics that
    /// some workload cannot report, or that read 0 on a correct run, are
    /// printed and compared but not listed.
    pub listed: bool,
    /// What the metric measures and what it should move, on which workload.
    pub about: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    bound: f64,
    listed: bool,
    about: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
        bound,
        listed,
        about,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    about: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
        listed: true,
        about,
    }
}

/// End-to-end metrics, measured with tracing off. Each is the median over
/// the repetitions of one invocation, except the pooled job percentiles
/// and the failure ratio. Times without the `host_` prefix are in
/// reference-host time: host time multiplied by the repetition's
/// `host.speed` (see [`crate::host::probe`]).
pub const END_TO_END: &[Metric] = &[
    e2e(
        "wall_s",
        "s",
        0.20,
        true,
        "wall time of one repetition, at reference host speed",
    ),
    e2e(
        "cpu_s",
        "s",
        0.20,
        true,
        "process user+sys CPU time of one repetition (/proc/self/stat), at reference host \
         speed",
    ),
    e2e(
        "job_ms_p50",
        "ms",
        0.20,
        false,
        "median time per job (set-up, run, snapshot, emit) at reference host speed, pooled \
         over repetitions; not on chaos-sweep",
    ),
    e2e(
        "job_ms_p95",
        "ms",
        0.20,
        false,
        "95th percentile time per job at reference host speed, pooled over repetitions; not \
         on chaos-sweep",
    ),
    e2e(
        "peak_heap_mb",
        "MB",
        0.10,
        true,
        "peak heap growth during one repetition (counting allocator)",
    ),
    e2e(
        "setup_s",
        "s",
        0.25,
        true,
        "time building worlds, backends and threads plus STM population, summed over a \
         repetition, at reference host speed; on chaos-sweep, generating the fuzz cases the \
         verdict rows are checked against",
    ),
    e2e(
        "host_wall_s",
        "s",
        0.25,
        false,
        "wall time of one repetition as the host measured it",
    ),
    e2e(
        "host_cpu_s",
        "s",
        0.25,
        false,
        "process CPU time of one repetition as the host measured it",
    ),
    e2e(
        "fail_rate",
        "ratio",
        0.0,
        false,
        "failed jobs / attempted jobs; any increase fails",
    ),
];

/// Per-layer metrics, from one clean and one traced repetition. `self_ms`
/// values are exclusive host time of `trace::prof` spans in the traced
/// repetition; the rest are exact simulated counts or times taken around
/// the public calls the benchmark makes.
pub const PER_LAYER: &[Metric] = &[
    layer("engine.events", "count", Better::Lower, "evq_events summed over jobs; moves wall_s on hw-handoff"),
    layer("engine.peak_pending", "count", Better::Lower, "largest evq_peak_pending of any job; moves peak_heap_mb"),
    layer("engine.run_for.self_ms", "ms", Better::Lower, "traced sim/run_for; moves wall_s on hw-handoff"),
    layer("engine.run_for.calls", "count", Better::Lower, "traced sim/run_for calls; one per fault-injection step on chaos-sweep"),
    layer("machine.setup_ms", "ms", Better::Lower, "World::new plus spawn; moves setup_s on the micro workloads"),
    layer("machine.dispatch.wire.self_ms", "ms", Better::Lower, "traced sim/dispatch/wire; moves wall_s on hw-handoff"),
    layer("machine.dispatch.timer.self_ms", "ms", Better::Lower, "traced sim/dispatch/timer; moves wall_s on hw-handoff"),
    layer("machine.dispatch.resume.self_ms", "ms", Better::Lower, "traced sim/dispatch/resume; moves wall_s on stm-tree"),
    layer("machine.dispatch.mem_done.self_ms", "ms", Better::Lower, "traced sim/dispatch/mem_done; moves wall_s on stm-tree"),
    layer("machine.dispatch.dir_msg.self_ms", "ms", Better::Lower, "traced sim/dispatch/dir_msg; moves wall_s on sw-rwlock and stm-tree"),
    layer("machine.dispatch.cache_msg.self_ms", "ms", Better::Lower, "traced sim/dispatch/cache_msg; moves wall_s on sw-rwlock and stm-tree"),
    layer("topo.link_msgs", "count", Better::Lower, "net_link_msgs; host cost sits in dispatch.wire on hw-handoff"),
    layer("topo.control_msgs", "count", Better::Lower, "net_control_msgs; moves wall_s on hw-handoff"),
    layer("topo.data_msgs", "count", Better::Lower, "net_data_msgs; moves wall_s on sw-rwlock and stm-tree"),
    layer("topo.queue_delay_cycles", "cycles", Better::Lower, "net_queue_delay_cycles (simulated)"),
    layer("coherence.dir_handle.self_ms", "ms", Better::Lower, "traced coherence/dir_handle; moves wall_s on sw-rwlock and stm-tree, 0 on hw-handoff"),
    layer("coherence.cache_handle.self_ms", "ms", Better::Lower, "traced coherence/cache_handle; moves wall_s on sw-rwlock and stm-tree, 0 on hw-handoff"),
    layer("coherence.dir_requests", "count", Better::Lower, "dir_gets + dir_getm served by the directories; 0 on hw-handoff"),
    layer("coherence.dir_invs", "count", Better::Lower, "dir_invs; moves wall_s on sw-rwlock"),
    layer("core.backend.self_ms", "ms", Better::Lower, "traced backend/* under LCU jobs; moves wall_s on hw-handoff"),
    layer("core.direct_transfers", "count", Better::Higher, "lcu_direct_transfers (the paper's handoff mechanism)"),
    layer("ssb.backend.self_ms", "ms", Better::Lower, "traced backend/* under SSB jobs; moves wall_s on hw-handoff"),
    layer("ssb.grant_ratio", "ratio", Better::Higher, "ssb_grants / ssb_requests; remote retries waste the rest"),
    layer("swlocks.backend.self_ms", "ms", Better::Lower, "traced backend/* under software-lock jobs; moves wall_s on sw-rwlock"),
    layer("swlocks.run_allocs", "count", Better::Lower, "allocations inside the event loop of software-lock jobs; moves wall_s and peak_heap_mb on sw-rwlock"),
    layer("stm.populate_ms", "ms", Better::Lower, "structure constructors plus population; moves setup_s on stm-tree"),
    layer("stm.commit_ratio", "ratio", Better::Higher, "commits / (commits + aborts); moves wall_s on stm-tree"),
    layer("faults.drive.self_ms", "ms", Better::Lower, "traced faults/drive; moves wall_s on chaos-sweep"),
    layer("faults.apply_due.self_ms", "ms", Better::Lower, "traced faults/apply_due; moves wall_s on chaos-sweep"),
    layer("faults.seeds_run", "count", Better::Higher, "seeds the cycle budget kept"),
    layer("faults.violations", "count", Better::Lower, "kept seeds with a verdict other than pass"),
    layer("trace.records", "count", Better::Lower, "traced trace/records; moves wall_s on chaos-sweep only"),
    layer("trace.hist_samples", "count", Better::Lower, "traced metrics/hist_samples; moves wall_s on stm-tree"),
    layer("trace.snapshot_ms", "ms", Better::Lower, "metrics_snapshot plus series_snapshot; moves job_ms_p50"),
    layer("trace.prof_overhead", "ratio", Better::Lower, "traced wall / clean wall at one job; how far to trust the self_ms values"),
    layer("host.allocs", "count", Better::Lower, "heap allocations per repetition; moves wall_s and cpu_s"),
    layer("host.alloc_mb", "MB", Better::Lower, "bytes allocated per repetition; moves wall_s and cpu_s"),
    layer("host.speed", "ratio", Better::Higher, "reference probe time / probe time around the repetition; the factor from host time to reference time"),
    layer("report.emit_ms", "ms", Better::Lower, "manifest, CSV and HTML writes; moves wall_s on chaos-sweep"),
    layer("harness.soak_ms", "ms", Better::Lower, "chaos::soak host time; moves wall_s on chaos-sweep"),
    layer("harness.sweep.cpu_util", "ratio", Better::Higher, "soak CPU / (jobs x soak wall); moves wall_s and cpu_s on chaos-sweep"),
    layer("harness.sweep.useful_ratio", "ratio", Better::Higher, "seeds kept / seeds executed; moves cpu_s on chaos-sweep"),
];

/// The catalogue entry named `name`, end-to-end or per-layer.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use locksim_report::json::{self, Value};

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn check_listed(listed: &[Value], catalogue: &[Metric], with_bound: bool) {
        let names: Vec<&str> = listed
            .iter()
            .map(|m| m.get_str("name").expect("metric name"))
            .collect();
        let expected: Vec<&str> = catalogue
            .iter()
            .filter(|m| m.listed)
            .map(|m| m.name)
            .collect();
        assert_eq!(names, expected);
        for m in listed {
            let def = find(m.get_str("name").unwrap()).unwrap();
            assert_eq!(m.get_str("unit").unwrap(), def.unit, "{}", def.name);
            assert_eq!(
                m.get_str("better").unwrap(),
                def.better.label(),
                "{}",
                def.name
            );
            if with_bound {
                assert_eq!(m.get_num("bound").unwrap(), def.bound, "{}", def.name);
            }
        }
    }

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let v = benchmark_json();
        check_listed(v.get_arr("end_to_end").unwrap(), END_TO_END, true);
        check_listed(v.get_arr("per_layer").unwrap(), PER_LAYER, false);
        let workloads: Vec<&str> = v
            .get_arr("workloads")
            .unwrap()
            .iter()
            .map(|w| w.get_str("name").unwrap())
            .collect();
        let expected: Vec<&str> = crate::jobs::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, expected);
    }

    #[test]
    fn setup_s_has_the_largest_bound() {
        let setup = find("setup_s").unwrap().bound;
        for m in END_TO_END
            .iter()
            .filter(|m| m.listed && m.name != "setup_s")
        {
            assert!(m.bound < setup, "{} bound {} >= setup_s", m.name, m.bound);
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
