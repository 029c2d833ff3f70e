//! Result records: the `lockbench.json` file one invocation writes, the
//! one-line result object it prints last, and `lockbench compare`.

use std::fmt::Write as _;

use locksim_harness::Table;
use locksim_report::json::{self, Value};

use crate::metrics::{self, Metric};
use crate::stats;

/// Schema tag of `lockbench.json`.
pub const SCHEMA: &str = "lockbench-v1";

/// One metric of one workload: the reported value (a median or pooled
/// percentile), the range it came from, and the sample count.
#[derive(Debug, Clone, PartialEq)]
pub struct Reading {
    /// Metric name (see [`metrics`]).
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Reported value.
    pub value: f64,
    /// Smallest per-repetition value.
    pub min: f64,
    /// Largest per-repetition value.
    pub max: f64,
    /// Samples behind the value: repetitions, or pooled jobs.
    pub samples: u64,
}

impl Reading {
    /// A reading of catalogue metric `m`.
    pub fn new(m: &Metric, value: f64, min: f64, max: f64, samples: u64) -> Reading {
        Reading {
            name: m.name.to_string(),
            unit: m.unit.to_string(),
            value,
            min,
            max,
            samples,
        }
    }
}

/// Everything one invocation measured on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    /// Workload name.
    pub workload: String,
    /// The `--seed` the inputs came from.
    pub seed: u64,
    /// Whether this is the traced pass (per-layer metrics) or the clean
    /// pass (end-to-end metrics).
    pub traced: bool,
    /// Repetitions run.
    pub reps: u64,
    /// Jobs attempted over all repetitions.
    pub attempted: u64,
    /// Jobs failed over all repetitions.
    pub failed: u64,
    /// `sim_digest` of the simulated outputs, as 16 hex digits.
    pub digest: String,
    /// The readings, in catalogue order.
    pub metrics: Vec<Reading>,
}

impl WorkloadResult {
    /// The reading named `name`.
    pub fn reading(&self, name: &str) -> Option<&Reading> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// Formats a value for JSON: shortest round-trip digits, `0` for a
/// non-finite value.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// Serializes `results` as `lockbench.json`, keys in a fixed order.
pub fn to_json(results: &[WorkloadResult]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{\n  \"schema\": \"{SCHEMA}\",\n  \"workloads\": [");
    for (i, r) in results.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"workload\": \"{}\", \"seed\": {}, \"traced\": {}, \"reps\": {}, \
             \"attempted\": {}, \"failed\": {}, \"digest\": \"{}\", \"metrics\": [",
            r.workload, r.seed, r.traced, r.reps, r.attempted, r.failed, r.digest
        );
        for (j, m) in r.metrics.iter().enumerate() {
            let _ = writeln!(
                s,
                "      {{\"name\": \"{}\", \"unit\": \"{}\", \"value\": {}, \"min\": {}, \
                 \"max\": {}, \"samples\": {}}}{}",
                m.name,
                m.unit,
                num(m.value),
                num(m.min),
                num(m.max),
                m.samples,
                if j + 1 < r.metrics.len() { "," } else { "" }
            );
        }
        let _ = writeln!(s, "    ]}}{}", if i + 1 < results.len() { "," } else { "" });
    }
    s.push_str("  ]\n}\n");
    s
}

/// Parses a `lockbench.json` file.
///
/// # Errors
///
/// Returns a message on malformed JSON, another schema, or a missing
/// field.
pub fn from_json(text: &str) -> Result<Vec<WorkloadResult>, String> {
    let v = json::parse(text)?;
    let schema = v.get_str("schema")?;
    if schema != SCHEMA {
        return Err(format!("schema {schema:?}, expected {SCHEMA:?}"));
    }
    let count = |x: &Value, k: &str| -> Result<u64, String> { Ok(x.get_num(k)? as u64) };
    let mut out = Vec::new();
    for w in v.get_arr("workloads")? {
        let mut metrics = Vec::new();
        for m in w.get_arr("metrics")? {
            metrics.push(Reading {
                name: m.get_str("name")?.to_string(),
                unit: m.get_str("unit")?.to_string(),
                value: m.get_num("value")?,
                min: m.get_num("min")?,
                max: m.get_num("max")?,
                samples: count(m, "samples")?,
            });
        }
        out.push(WorkloadResult {
            workload: w.get_str("workload")?.to_string(),
            seed: count(w, "seed")?,
            traced: w.get_bool("traced")?,
            reps: count(w, "reps")?,
            attempted: count(w, "attempted")?,
            failed: count(w, "failed")?,
            digest: w.get_str("digest")?.to_string(),
            metrics,
        });
    }
    Ok(out)
}

/// The result object printed as the last line of standard output:
/// correctness, job counts, and `name: {value, unit}` for every reading
/// whose metric `BENCHMARK.json` lists. With several workloads the keys
/// are prefixed `<workload>.`.
pub fn result_line(results: &[WorkloadResult]) -> String {
    let attempted: u64 = results.iter().map(|r| r.attempted).sum();
    let failed: u64 = results.iter().map(|r| r.failed).sum();
    let mut fields = Vec::new();
    for r in results {
        for m in &r.metrics {
            if !metrics::find(&m.name).is_some_and(|d| d.listed) {
                continue;
            }
            let key = if results.len() == 1 {
                m.name.clone()
            } else {
                format!("{}.{}", r.workload, m.name)
            };
            fields.push(format!(
                "\"{key}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                num(m.value),
                m.unit
            ));
        }
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0 && attempted > 0,
        fields.join(", ")
    )
}

/// The outcome of comparing two result files.
#[derive(Debug)]
pub struct Comparison {
    /// One row per workload and metric present in both.
    pub table: Table,
    /// Why the comparison failed; empty when every pair is within bound.
    pub failures: Vec<String>,
}

/// Compares every end-to-end reading of `cur` against `base`, workload by
/// workload, with each metric's bound. Simulated outputs must also agree:
/// for the same seed, the digests must be equal.
pub fn compare(base: &[WorkloadResult], cur: &[WorkloadResult]) -> Comparison {
    let mut table = Table::new(
        "lockbench compare — current against base",
        &[
            "workload", "metric", "base", "current", "ratio", "bound", "verdict",
        ],
    );
    let mut failures = Vec::new();
    for c in cur {
        let Some(b) = base
            .iter()
            .find(|b| b.workload == c.workload && b.traced == c.traced)
        else {
            continue;
        };
        if b.seed == c.seed && b.digest != c.digest {
            failures.push(format!(
                "{}: sim_digest {} -> {} at seed {}",
                c.workload, b.digest, c.digest, c.seed
            ));
        }
        for def in metrics::END_TO_END {
            let (Some(bm), Some(cm)) = (b.reading(def.name), c.reading(def.name)) else {
                continue;
            };
            let ok = stats::within_bound(bm.value, cm.value, def.bound, def.better);
            table.push(vec![
                c.workload.clone(),
                format!("{} ({})", def.name, def.unit),
                format!("{:.4}", bm.value),
                format!("{:.4}", cm.value),
                format!("{:.3}", stats::ratio(bm.value, cm.value)),
                format!("+{:.0}%", def.bound * 100.0),
                if ok { "pass" } else { "FAIL" }.to_string(),
            ]);
            if !ok {
                failures.push(format!(
                    "{}: {} {:.4} -> {:.4} exceeds its +{:.0}% bound",
                    c.workload,
                    def.name,
                    bm.value,
                    cm.value,
                    def.bound * 100.0
                ));
            }
        }
    }
    Comparison { table, failures }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(wall: f64, fail_rate: f64, digest: &str) -> WorkloadResult {
        let m =
            |name: &str, v: f64| Reading::new(metrics::find(name).unwrap(), v, v * 0.9, v * 1.1, 5);
        WorkloadResult {
            workload: "hw-handoff".to_string(),
            seed: 0,
            traced: false,
            reps: 5,
            attempted: 1440,
            failed: 0,
            digest: digest.to_string(),
            metrics: vec![
                m("wall_s", wall),
                m("job_ms_p95", 20.0),
                m("fail_rate", fail_rate),
            ],
        }
    }

    #[test]
    fn json_round_trips() {
        let r = vec![result(3.7051, 0.0, "00ff00ff00ff00ff")];
        assert_eq!(from_json(&to_json(&r)).unwrap(), r);
        assert!(from_json("{\"schema\": \"other\", \"workloads\": []}").is_err());
    }

    #[test]
    fn compare_applies_each_bound() {
        let base = vec![result(10.0, 0.0, "a")];
        let limit = 10.0 * (1.0 + metrics::find("wall_s").unwrap().bound);
        let within = compare(&base, &[result(limit - 0.01, 0.0, "a")]);
        assert!(within.failures.is_empty(), "{:?}", within.failures);
        let slow = compare(&base, &[result(limit + 0.01, 0.0, "a")]);
        assert_eq!(slow.failures.len(), 1);
        assert!(slow.failures[0].contains("wall_s"), "{:?}", slow.failures);
        let failing = compare(&base, &[result(10.0, 0.01, "a")]);
        assert!(
            failing.failures[0].contains("fail_rate"),
            "{:?}",
            failing.failures
        );
    }

    #[test]
    fn compare_flags_digest_drift_only_for_the_same_seed() {
        let base = vec![result(10.0, 0.0, "a")];
        assert_eq!(compare(&base, &[result(10.0, 0.0, "b")]).failures.len(), 1);
        let mut other_seed = result(10.0, 0.0, "b");
        other_seed.seed = 1;
        assert!(compare(&base, &[other_seed]).failures.is_empty());
    }

    #[test]
    fn result_line_lists_only_listed_metrics() {
        let line = result_line(&[result(3.5, 0.0, "a")]);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1440, \"failed\": 0"));
        assert!(
            line.contains("\"wall_s\": {\"value\": 3.5, \"unit\": \"s\"}"),
            "{line}"
        );
        assert!(!line.contains("fail_rate"), "{line}");
        assert!(!line.contains("job_ms_p95"), "{line}");
        json::parse(&line).expect("valid JSON");
    }
}
