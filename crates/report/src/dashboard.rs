//! The HTML dashboard: one self-contained page aggregating a ledger of
//! run manifests.
//!
//! The page is built from the shared emitter in `locksim_trace::html`
//! (document head and stylesheet, tables, verdict colours, SVG line
//! charts), so it has *no* external references and no JavaScript: the
//! file can be archived as a CI artifact and opened years later, offline.
//! Rendering is a pure function of the manifests (sorted by file name), so
//! two identical invocations produce byte-identical HTML; CI relies on
//! that.

use std::fmt::Write as _;

use locksim_trace::html::{self, esc, Line};

use crate::manifest::RunManifest;

/// The per-run time-series panel: grants/window and wait p99 polylines
/// with fault/oracle marks as vertical rules.
fn series_chart(out: &mut String, m: &RunManifest) {
    let Some(series) = &m.series else {
        return;
    };
    if series.rows.is_empty() {
        return;
    }
    let x_max = series
        .rows
        .last()
        .map(|r| r.start_cycle + series.window)
        .unwrap_or(1);
    let g_max = series.rows.iter().map(|r| r.grants).max().unwrap_or(1) as f64;
    let p_max = series.rows.iter().map(|r| r.wait_p99).max().unwrap_or(1) as f64;
    let (grants, p99): (Vec<_>, Vec<_>) = series
        .rows
        .iter()
        .map(|r| {
            let mid = r.start_cycle + series.window / 2;
            ((mid, r.grants as f64), (mid, r.wait_p99 as f64))
        })
        .unzip();
    let marks: Vec<(u64, &str)> = series
        .rows
        .iter()
        .filter(|r| !r.marks.is_empty())
        .map(|r| (r.start_cycle, r.marks.as_str()))
        .collect();
    let _ = write!(
        out,
        "<h3>{} / {} — time-series (window {} cycles)</h3>",
        esc(&m.bin),
        esc(&m.label),
        series.window
    );
    html::line_chart(
        out,
        (640, 140),
        x_max,
        &[
            Line {
                points: &grants,
                y_max: g_max,
                color: "#2a6db0",
            },
            Line {
                points: &p99,
                y_max: p_max,
                color: "#d07a28",
            },
        ],
        &marks,
    );
    let _ = write!(
        out,
        "<div class=\"legend\">blue: grants per window (max {g_max:.0}) &middot; \
         orange: wait p99 per window (max {p_max:.0} cycles) &middot; \
         dashed red: fault/oracle marks</div>"
    );
}

/// The tail-latency table: one row per (run, histogram).
fn tail_table(out: &mut String, manifests: &[(String, RunManifest)]) {
    if manifests.iter().all(|(_, m)| m.hists.is_empty()) {
        out.push_str("<p class=\"meta\">No histogram data in the ledger.</p>");
        return;
    }
    let rows = manifests.iter().flat_map(|(_, m)| {
        m.hists.iter().map(|(name, h)| {
            [
                m.bin.clone(),
                m.label.clone(),
                name.clone(),
                h.count.to_string(),
                h.p50.to_string(),
                h.p99.to_string(),
                h.p999.to_string(),
                h.p9999.to_string(),
                h.max.to_string(),
            ]
        })
    });
    html::table(
        out,
        &[
            "bin",
            "run",
            "histogram",
            "count",
            "p50",
            "p99",
            "p99.9",
            "p99.99",
            "max",
        ],
        rows,
    );
    out.push_str(
        "<p class=\"meta\">Cycles; quantiles from mergeable log-bucketed sketches \
         (relative error &le; 1/32). p99.9 and beyond need enough samples to resolve: \
         with fewer than 1000 samples p99.9 equals the empirical maximum rank.</p>",
    );
}

/// The verdict matrix: every oracle/gate outcome across the ledger.
fn verdict_matrix(out: &mut String, manifests: &[(String, RunManifest)]) {
    if manifests.iter().all(|(_, m)| m.verdicts.is_empty()) {
        out.push_str("<p class=\"meta\">No verdicts in the ledger.</p>");
        return;
    }
    let rows = manifests.iter().flat_map(|(_, m)| {
        m.verdicts
            .iter()
            .map(|v| [&m.bin, &m.label, &v.name, &v.verdict])
    });
    html::table(out, &["bin", "run", "check", "verdict"], rows);
}

/// Renders the full dashboard. `manifests` must already be sorted by file
/// name — [`crate::manifest::read_manifests`] guarantees that, keeping the
/// output deterministic.
pub fn render_dashboard(manifests: &[(String, RunManifest)]) -> String {
    html::page("locksim experiment dashboard", |out| {
        let _ = writeln!(
            out,
            "<p class=\"meta\">{} manifest(s). Generated by the <code>report</code> bin from \
             <code>results/runs/</code> manifests (<code>locksim-run-v1</code>); fully \
             self-contained, no scripts.</p>",
            manifests.len()
        );
        out.push_str("<h2>Tail latency</h2>\n");
        tail_table(out, manifests);
        out.push_str("\n<h2>Time series</h2>\n");
        let before = out.len();
        for (_, m) in manifests {
            series_chart(out, m);
        }
        if out.len() == before {
            out.push_str(
                "<p class=\"meta\">No time-series data in the ledger (run bins with \
                 observability armed to collect it).</p>",
            );
        }
        out.push_str("\n<h2>Verdicts</h2>\n");
        verdict_matrix(out, manifests);
        out.push('\n');
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::Verdict;
    use locksim_trace::{SeriesSnapshot, TailSummary, WindowRow};

    fn manifest() -> RunManifest {
        RunManifest {
            bin: "obs-fig9".to_string(),
            label: "lcu".to_string(),
            config: "threads=16".to_string(),
            seed: 42,
            end_cycle: 100_000,
            verdicts: vec![Verdict {
                name: "liveness".to_string(),
                verdict: "pass".to_string(),
            }],
            counters: vec![("locks_granted".to_string(), 64)],
            hists: vec![(
                "lock_wait_cycles".to_string(),
                TailSummary {
                    count: 64,
                    p50: 120,
                    p95: 256,
                    p99: 310,
                    p999: 420,
                    p9999: 420,
                    max: 433,
                },
            )],
            sketches: vec![(
                "lock_wait_cycles".to_string(),
                "qsketch-v1 k=5 count=1 min=7 max=7 buckets=7:1".to_string(),
            )],
            series: Some(SeriesSnapshot {
                window: 25_000,
                rows: vec![
                    WindowRow {
                        start_cycle: 0,
                        grants: 30,
                        wait_p50: 100,
                        wait_p99: 300,
                        wait_max: 400,
                        queue_peak: 5,
                        marks: String::new(),
                    },
                    WindowRow {
                        start_cycle: 25_000,
                        grants: 34,
                        wait_p50: 110,
                        wait_p99: 310,
                        wait_max: 433,
                        queue_peak: 6,
                        marks: "fault/suspend:1".to_string(),
                    },
                ],
            }),
        }
    }

    #[test]
    fn dashboard_is_self_contained_and_deterministic() {
        let ms = vec![("a.json".to_string(), manifest())];
        let html = render_dashboard(&ms);
        assert_eq!(html, render_dashboard(&ms));
        assert!(!html.contains("http://"), "no external references");
        assert!(!html.contains("https://"), "no external references");
        assert!(!html.contains("<script"), "no scripts");
        // The acceptance surfaces: tail rows, a series chart, verdicts.
        assert!(html.contains("p99.9"));
        assert!(html.contains("lock_wait_cycles"));
        assert!(html.contains("<polyline"));
        assert!(html.contains("time-series"));
        assert!(html.contains("liveness"));
    }

    #[test]
    fn marks_render_as_dashed_rules() {
        let ms = vec![("a.json".to_string(), manifest())];
        let html = render_dashboard(&ms);
        assert!(html.contains("stroke-dasharray"), "mark rule present");
        assert!(html.contains("fault/suspend:1"));
    }

    #[test]
    fn empty_inputs_render_placeholders() {
        let html = render_dashboard(&[]);
        assert!(html.contains("No histogram data"));
        assert!(html.contains("No time-series data"));
        assert!(html.contains("No verdicts"));
    }

    #[test]
    fn html_escapes_hostile_labels() {
        let mut m = manifest();
        m.label = "<script>alert(1)</script>".to_string();
        let html = render_dashboard(&[("a.json".to_string(), m)]);
        assert!(!html.contains("<script>alert"));
        assert!(html.contains("&lt;script&gt;"));
    }
}
