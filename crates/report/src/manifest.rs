//! The cross-run experiment ledger: `locksim-run-v1` manifests.
//!
//! Every harness bin writes one manifest per measured run into
//! `results/runs/`. A manifest is a self-describing JSON record of what
//! ran (bin, label, config, seed), what the oracles said (verdicts), and
//! what was measured (counters, histogram tail summaries, the serialized
//! quantile sketches behind them, and the windowed time-series). All
//! fields are simulation-derived — no wall times, no timestamps — so two
//! identical runs produce byte-identical manifests, and CI diffs them as a
//! determinism gate. The `report` bin aggregates a directory of manifests
//! into the HTML dashboard.

use std::path::{Path, PathBuf};

use locksim_trace::metrics::MetricsSnapshot;
use locksim_trace::series::{SeriesSnapshot, WindowRow};
use locksim_trace::TailSummary;

use crate::json::{self, escape, Value};

/// Schema tag written to (and required of) every manifest.
pub const SCHEMA: &str = "locksim-run-v1";

/// One named oracle/gate outcome, e.g. `("liveness", "pass")`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// What was judged (oracle or gate name).
    pub name: String,
    /// The outcome label (`pass`, `fail`, `LIVENESS`, ...).
    pub verdict: String,
}

/// One run's ledger entry. See the module docs for the determinism
/// contract.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// Which bin produced the run (`obs-fig9`, `faultsim`, ...).
    pub bin: String,
    /// The run's label within the bin (backend name, matrix cell, ...).
    pub label: String,
    /// Free-form config description (`threads=16 write_pct=100`).
    pub config: String,
    /// Workload seed.
    pub seed: u64,
    /// Simulated cycle the run ended at.
    pub end_cycle: u64,
    /// Oracle/gate outcomes (empty for plain measurement runs).
    pub verdicts: Vec<Verdict>,
    /// End-of-run counters, in name order.
    pub counters: Vec<(String, u64)>,
    /// `(name, tail summary)` per latency histogram, in name order.
    pub hists: Vec<(String, TailSummary)>,
    /// `(name, qsketch-v1 text)` per histogram, in name order.
    pub sketches: Vec<(String, String)>,
    /// The windowed time-series, when collection recorded a window.
    pub series: Option<SeriesSnapshot>,
}

impl RunManifest {
    /// Builds a manifest from a run's end-of-run snapshot and (optional)
    /// time-series export.
    #[allow(clippy::too_many_arguments)] // the manifest's full identity tuple
    pub fn from_snapshot(
        bin: &str,
        label: &str,
        config: &str,
        seed: u64,
        end_cycle: u64,
        verdicts: Vec<Verdict>,
        snap: &MetricsSnapshot,
        series: Option<&SeriesSnapshot>,
    ) -> RunManifest {
        RunManifest {
            bin: bin.to_string(),
            label: label.to_string(),
            config: config.to_string(),
            seed,
            end_cycle,
            verdicts,
            counters: snap
                .counters
                .iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            hists: snap
                .hists
                .iter()
                .map(|&(name, t)| (name.to_string(), t))
                .collect(),
            sketches: snap.sketches.clone(),
            series: series.filter(|s| !s.is_empty()).cloned(),
        }
    }

    /// Serializes in a fixed key order, so manifests diff cleanly and two
    /// identical runs produce byte-identical files.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
        s.push_str(&format!("  \"bin\": \"{}\",\n", escape(&self.bin)));
        s.push_str(&format!("  \"label\": \"{}\",\n", escape(&self.label)));
        s.push_str(&format!("  \"config\": \"{}\",\n", escape(&self.config)));
        s.push_str(&format!("  \"seed\": {},\n", self.seed));
        s.push_str(&format!("  \"end_cycle\": {},\n", self.end_cycle));
        s.push_str("  \"verdicts\": [\n");
        for (i, v) in self.verdicts.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"name\": \"{}\", \"verdict\": \"{}\"}}{}\n",
                escape(&v.name),
                escape(&v.verdict),
                comma(i, self.verdicts.len())
            ));
        }
        s.push_str("  ],\n  \"counters\": [\n");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"name\": \"{}\", \"value\": {v}}}{}\n",
                escape(k),
                comma(i, self.counters.len())
            ));
        }
        s.push_str("  ],\n  \"hists\": [\n");
        for (i, (name, h)) in self.hists.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"name\": \"{}\", \"count\": {}, \"p50\": {}, \"p95\": {}, \
                 \"p99\": {}, \"p999\": {}, \"p9999\": {}, \"max\": {}}}{}\n",
                escape(name),
                h.count,
                h.p50,
                h.p95,
                h.p99,
                h.p999,
                h.p9999,
                h.max,
                comma(i, self.hists.len())
            ));
        }
        s.push_str("  ],\n  \"sketches\": [\n");
        for (i, (name, text)) in self.sketches.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"name\": \"{}\", \"text\": \"{}\"}}{}\n",
                escape(name),
                escape(text),
                comma(i, self.sketches.len())
            ));
        }
        s.push_str("  ],\n");
        match &self.series {
            None => s.push_str("  \"series\": null\n"),
            Some(sr) => {
                s.push_str(&format!(
                    "  \"series\": {{\"window\": {}, \"rows\": [\n",
                    sr.window
                ));
                for (i, r) in sr.rows.iter().enumerate() {
                    s.push_str(&format!(
                        "    {{\"start_cycle\": {}, \"grants\": {}, \"wait_p50\": {}, \
                         \"wait_p99\": {}, \"wait_max\": {}, \"queue_peak\": {}, \
                         \"marks\": \"{}\"}}{}\n",
                        r.start_cycle,
                        r.grants,
                        r.wait_p50,
                        r.wait_p99,
                        r.wait_max,
                        r.queue_peak,
                        escape(&r.marks),
                        comma(i, sr.rows.len())
                    ));
                }
                s.push_str("  ]}\n");
            }
        }
        s.push_str("}\n");
        s
    }

    /// Parses a manifest produced by [`RunManifest::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message on malformed JSON, a wrong `schema` tag, or a
    /// missing required field.
    pub fn from_json(text: &str) -> Result<RunManifest, String> {
        let v = json::parse(text)?;
        let schema = v.get_str("schema")?;
        if schema != SCHEMA {
            return Err(format!(
                "unsupported schema {schema:?} (expected {SCHEMA:?})"
            ));
        }
        let num = |x: &Value, k: &str| -> Result<u64, String> { Ok(x.get_num(k)? as u64) };
        let mut verdicts = Vec::new();
        for item in v.get_arr("verdicts")? {
            verdicts.push(Verdict {
                name: item.get_str("name")?.to_string(),
                verdict: item.get_str("verdict")?.to_string(),
            });
        }
        let mut counters = Vec::new();
        for item in v.get_arr("counters")? {
            counters.push((item.get_str("name")?.to_string(), num(item, "value")?));
        }
        let mut hists = Vec::new();
        for item in v.get_arr("hists")? {
            hists.push((
                item.get_str("name")?.to_string(),
                TailSummary {
                    count: num(item, "count")?,
                    p50: num(item, "p50")?,
                    p95: num(item, "p95")?,
                    p99: num(item, "p99")?,
                    p999: num(item, "p999")?,
                    p9999: num(item, "p9999")?,
                    max: num(item, "max")?,
                },
            ));
        }
        let mut sketches = Vec::new();
        for item in v.get_arr("sketches")? {
            sketches.push((
                item.get_str("name")?.to_string(),
                item.get_str("text")?.to_string(),
            ));
        }
        let series = match v.get("series")? {
            Value::Null => None,
            sv => {
                let mut rows = Vec::new();
                for item in sv.get_arr("rows")? {
                    rows.push(WindowRow {
                        start_cycle: num(item, "start_cycle")?,
                        grants: num(item, "grants")?,
                        wait_p50: num(item, "wait_p50")?,
                        wait_p99: num(item, "wait_p99")?,
                        wait_max: num(item, "wait_max")?,
                        queue_peak: num(item, "queue_peak")?,
                        marks: item.get_str("marks")?.to_string(),
                    });
                }
                Some(SeriesSnapshot {
                    window: num(sv, "window")?,
                    rows,
                })
            }
        };
        Ok(RunManifest {
            bin: v.get_str("bin")?.to_string(),
            label: v.get_str("label")?.to_string(),
            config: v.get_str("config")?.to_string(),
            seed: num(&v, "seed")?,
            end_cycle: num(&v, "end_cycle")?,
            verdicts,
            counters,
            hists,
            sketches,
            series,
        })
    }

    /// The manifest's canonical file name within a ledger directory:
    /// `<bin>__<label>.json` with path-hostile characters flattened.
    pub fn file_name(&self) -> String {
        format!("{}__{}.json", sanitize(&self.bin), sanitize(&self.label))
    }
}

fn comma(i: usize, len: usize) -> &'static str {
    if i + 1 < len {
        ","
    } else {
        ""
    }
}

/// Flattens a bin/label into a file-name-safe slug.
fn sanitize(s: &str) -> String {
    s.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.') {
                c
            } else {
                '-'
            }
        })
        .collect()
}

/// Writes `m` into `dir` (created if missing) under its canonical name.
///
/// # Errors
///
/// Propagates directory-creation and file-write errors.
pub fn write_manifest(dir: &Path, m: &RunManifest) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(m.file_name());
    std::fs::write(&path, m.to_json())?;
    Ok(path)
}

/// Reads every `*.json` manifest in `dir`, sorted by file name. Files that
/// fail to parse as `locksim-run-v1` are skipped with a note to stderr
/// (the ledger directory may hold other artifacts).
pub fn read_manifests(dir: &Path) -> Vec<(String, RunManifest)> {
    let mut names: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|x| x == "json"))
                .collect()
        })
        .unwrap_or_default();
    names.sort();
    let mut out = Vec::new();
    for p in names {
        let Ok(text) = std::fs::read_to_string(&p) else {
            continue;
        };
        match RunManifest::from_json(&text) {
            Ok(m) => out.push((p.file_name().unwrap().to_string_lossy().into_owned(), m)),
            Err(e) => eprintln!("report: skipping {}: {e}", p.display()),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use locksim_trace::MetricsRegistry;

    fn sample() -> RunManifest {
        let mut reg = MetricsRegistry::new();
        reg.incr("locks_granted");
        reg.add("evq_events", 100);
        for v in [10u64, 20, 30, 4000] {
            reg.observe("lock_wait_cycles", v);
        }
        let snap = reg.snapshot();
        let mut sc = locksim_trace::SeriesCollector::new();
        sc.enable(100);
        sc.on_grant(10, 5);
        sc.on_grant(150, 7);
        sc.mark(150, "fault/suspend");
        let series = sc.snapshot();
        RunManifest::from_snapshot(
            "obs-fig9",
            "lcu",
            "threads=16 write_pct=100",
            42,
            9_999,
            vec![Verdict {
                name: "liveness".to_string(),
                verdict: "pass".to_string(),
            }],
            &snap,
            Some(&series),
        )
    }

    #[test]
    fn roundtrips_and_is_deterministic() {
        let m = sample();
        let text = m.to_json();
        assert_eq!(text, sample().to_json(), "same inputs, same bytes");
        let parsed = RunManifest::from_json(&text).unwrap();
        assert_eq!(parsed.bin, "obs-fig9");
        assert_eq!(parsed.seed, 42);
        assert_eq!(parsed.end_cycle, 9_999);
        assert_eq!(parsed.verdicts.len(), 1);
        assert_eq!(parsed.hists.len(), 1);
        assert_eq!(parsed.hists[0].1.max, 4000);
        assert_eq!(parsed.sketches.len(), 1);
        let series = parsed.series.as_ref().unwrap();
        assert_eq!(series.rows.len(), 2);
        assert_eq!(series.rows[1].marks, "fault/suspend:1");
        // The embedded sketch text is still a parseable sketch.
        let sk = locksim_trace::QuantileSketch::from_text(&parsed.sketches[0].1).unwrap();
        assert_eq!(sk.count(), 4);
        // Full structural round-trip.
        assert_eq!(RunManifest::from_json(&parsed.to_json()).unwrap(), parsed);
    }

    #[test]
    fn empty_series_is_omitted() {
        let reg = MetricsRegistry::new();
        let snap = reg.snapshot();
        let empty = locksim_trace::SeriesCollector::new().snapshot();
        let m = RunManifest::from_snapshot("x", "y", "", 1, 2, vec![], &snap, Some(&empty));
        assert!(m.series.is_none());
        assert!(m.to_json().contains("\"series\": null"));
    }

    #[test]
    fn rejects_wrong_schema() {
        assert!(RunManifest::from_json("{\"schema\": \"other\"}").is_err());
        assert!(RunManifest::from_json("nope").is_err());
    }

    #[test]
    fn file_names_are_path_safe() {
        let mut m = sample();
        m.bin = "obs/fig9".to_string();
        m.label = "lcu+flt w=100%".to_string();
        assert_eq!(m.file_name(), "obs-fig9__lcu-flt-w-100-.json");
    }

    #[test]
    fn write_and_read_back() {
        let dir =
            std::env::temp_dir().join(format!("locksim-manifest-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let m = sample();
        write_manifest(&dir, &m).unwrap();
        std::fs::write(dir.join("notes.txt"), "not a manifest").unwrap();
        std::fs::write(dir.join("junk.json"), "{}").unwrap();
        let got = read_manifests(&dir);
        assert_eq!(got.len(), 1, "non-manifest files are skipped");
        assert_eq!(got[0].1, m);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
