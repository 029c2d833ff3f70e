//! The HTML dashboard: one self-contained page aggregating a ledger of
//! run manifests.
//!
//! Self-contained means *no* external references — styling is an inline
//! `<style>` block, charts are inline SVG, and there is no JavaScript at
//! all — so the file can be archived as a CI artifact and opened years
//! later, offline. Rendering is a pure function of the manifests (sorted
//! by file name), so two identical invocations produce byte-identical
//! HTML; CI relies on that.

use std::fmt::Write as _;

use locksim_trace::html::esc;

use crate::manifest::RunManifest;

const CSS: &str = "\
body{font-family:system-ui,sans-serif;margin:2rem;max-width:72rem;color:#1a2733}\
h1{font-size:1.5rem}h2{font-size:1.15rem;margin-top:2rem;border-bottom:2px solid #d7e0e8;padding-bottom:.3rem}\
h3{font-size:1rem;margin-bottom:.3rem}\
table{border-collapse:collapse;margin:.7rem 0;font-size:.85rem}\
th,td{border:1px solid #c8d2dc;padding:.25rem .55rem;text-align:left}\
th{background:#eef3f7}\
td.num{text-align:right;font-variant-numeric:tabular-nums}\
td.ok{background:#e6f4e6}td.bad{background:#fae3e3}td.na{color:#8a97a3}\
.meta{color:#5a6b7a;font-size:.8rem}\
svg{background:#fbfcfe;border:1px solid #d7e0e8;margin:.4rem 0}\
.legend{font-size:.78rem;color:#5a6b7a}\
";

/// An SVG polyline over `(x, y)` samples, scaled into a `w`×`h` box with
/// the given y maximum (x is scaled to the sample span).
fn polyline(points: &[(u64, f64)], x_max: u64, y_max: f64, w: u32, h: u32, color: &str) -> String {
    if points.is_empty() {
        return String::new();
    }
    let xs = x_max.max(1) as f64;
    let ys = if y_max <= 0.0 { 1.0 } else { y_max };
    let coords: Vec<String> = points
        .iter()
        .map(|&(x, y)| {
            let px = (x as f64 / xs) * f64::from(w - 10) + 5.0;
            let py = f64::from(h - 8) - (y / ys) * f64::from(h - 16) + 4.0;
            format!("{px:.1},{py:.1}")
        })
        .collect();
    format!(
        "<polyline fill=\"none\" stroke=\"{color}\" stroke-width=\"1.5\" points=\"{}\"/>",
        coords.join(" ")
    )
}

/// The per-run time-series panel: grants/window and wait p99 polylines
/// with fault/oracle marks as vertical rules.
fn series_chart(m: &RunManifest) -> String {
    let Some(series) = &m.series else {
        return String::new();
    };
    if series.rows.is_empty() {
        return String::new();
    }
    let (w, h) = (640u32, 140u32);
    let x_max = series
        .rows
        .last()
        .map(|r| r.start_cycle + series.window)
        .unwrap_or(1);
    let g_max = series.rows.iter().map(|r| r.grants).max().unwrap_or(1) as f64;
    let p_max = series.rows.iter().map(|r| r.wait_p99).max().unwrap_or(1) as f64;
    let grants: Vec<(u64, f64)> = series
        .rows
        .iter()
        .map(|r| (r.start_cycle + series.window / 2, r.grants as f64))
        .collect();
    let p99: Vec<(u64, f64)> = series
        .rows
        .iter()
        .map(|r| (r.start_cycle + series.window / 2, r.wait_p99 as f64))
        .collect();
    let mut marks = String::new();
    for r in &series.rows {
        if !r.marks.is_empty() {
            let px = (r.start_cycle as f64 / x_max.max(1) as f64) * f64::from(w - 10) + 5.0;
            let _ = write!(
                marks,
                "<line x1=\"{px:.1}\" y1=\"4\" x2=\"{px:.1}\" y2=\"{}\" stroke=\"#c0392b\" \
                 stroke-width=\"1\" stroke-dasharray=\"3,2\"><title>{}</title></line>",
                h - 4,
                esc(&r.marks)
            );
        }
    }
    format!(
        "<h3>{} / {} — time-series (window {} cycles)</h3>\
         <svg width=\"{w}\" height=\"{h}\" viewBox=\"0 0 {w} {h}\" role=\"img\" \
         aria-label=\"per-window time series\">{}{}{marks}</svg>\
         <div class=\"legend\">blue: grants per window (max {g_max:.0}) &middot; \
         orange: wait p99 per window (max {p_max:.0} cycles) &middot; \
         dashed red: fault/oracle marks</div>",
        esc(&m.bin),
        esc(&m.label),
        series.window,
        polyline(&grants, x_max, g_max, w, h, "#2a6db0"),
        polyline(&p99, x_max, p_max, w, h, "#d07a28"),
    )
}

/// The tail-latency table: one row per (run, histogram).
fn tail_table(manifests: &[(String, RunManifest)]) -> String {
    let mut rows = String::new();
    for (_, m) in manifests {
        for h in &m.hists {
            let _ = write!(
                rows,
                "<tr><td>{}</td><td>{}</td><td>{}</td><td class=\"num\">{}</td>\
                 <td class=\"num\">{}</td><td class=\"num\">{}</td><td class=\"num\">{}</td>\
                 <td class=\"num\">{}</td><td class=\"num\">{}</td></tr>",
                esc(&m.bin),
                esc(&m.label),
                esc(&h.name),
                h.count,
                h.p50,
                h.p99,
                h.p999,
                h.p9999,
                h.max
            );
        }
    }
    if rows.is_empty() {
        return "<p class=\"meta\">No histogram data in the ledger.</p>".to_string();
    }
    format!(
        "<table><tr><th>bin</th><th>run</th><th>histogram</th><th>count</th>\
         <th>p50</th><th>p99</th><th>p99.9</th><th>p99.99</th><th>max</th></tr>{rows}</table>\
         <p class=\"meta\">Cycles; quantiles from mergeable log-bucketed sketches \
         (relative error &le; 1/32). p99.9 and beyond need enough samples to resolve: \
         with fewer than 1000 samples p99.9 equals the empirical maximum rank.</p>"
    )
}

/// The verdict matrix: every oracle/gate outcome across the ledger.
fn verdict_matrix(manifests: &[(String, RunManifest)]) -> String {
    let mut rows = String::new();
    for (_, m) in manifests {
        for v in &m.verdicts {
            let label = v.verdict.to_ascii_lowercase();
            let class = if label.contains("pass") || label == "none" || label.contains("ok") {
                "ok"
            } else if label.contains("n/a") || label.contains("skip") {
                "na"
            } else {
                "bad"
            };
            let _ = write!(
                rows,
                "<tr><td>{}</td><td>{}</td><td>{}</td><td class=\"{class}\">{}</td></tr>",
                esc(&m.bin),
                esc(&m.label),
                esc(&v.name),
                esc(&v.verdict)
            );
        }
    }
    if rows.is_empty() {
        return "<p class=\"meta\">No verdicts in the ledger.</p>".to_string();
    }
    format!("<table><tr><th>bin</th><th>run</th><th>check</th><th>verdict</th></tr>{rows}</table>")
}

/// Renders the full dashboard. `manifests` must already be sorted by file
/// name — [`crate::manifest::read_manifests`] guarantees that, keeping the
/// output deterministic.
pub fn render_dashboard(manifests: &[(String, RunManifest)]) -> String {
    let mut charts = String::new();
    for (_, m) in manifests {
        charts.push_str(&series_chart(m));
    }
    if charts.is_empty() {
        charts = "<p class=\"meta\">No time-series data in the ledger (run bins with \
                  observability armed to collect it).</p>"
            .to_string();
    }
    let runs_line = format!("{} manifest(s)", manifests.len());
    format!(
        "<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">\
         <title>locksim experiment dashboard</title><style>{CSS}</style></head><body>\n\
         <h1>locksim experiment dashboard</h1>\n\
         <p class=\"meta\">{runs_line}. Generated by the <code>report</code> bin from \
         <code>results/runs/</code> manifests (<code>locksim-run-v1</code>); fully \
         self-contained, no scripts.</p>\n\
         <h2>Tail latency</h2>\n{}\n\
         <h2>Time series</h2>\n{}\n\
         <h2>Verdicts</h2>\n{}\n\
         </body></html>\n",
        tail_table(manifests),
        charts,
        verdict_matrix(manifests)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::{HistRow, SeriesOut, SeriesRow, Verdict};

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
            hists: vec![HistRow {
                name: "lock_wait_cycles".to_string(),
                count: 64,
                p50: 120,
                p95: 256,
                p99: 310,
                p999: 420,
                p9999: 420,
                max: 433,
            }],
            sketches: vec![(
                "lock_wait_cycles".to_string(),
                "qsketch-v1 k=5 count=1 min=7 max=7 buckets=7:1".to_string(),
            )],
            series: Some(SeriesOut {
                window: 25_000,
                rows: vec![
                    SeriesRow {
                        start_cycle: 0,
                        grants: 30,
                        wait_p50: 100,
                        wait_p99: 300,
                        wait_max: 400,
                        queue_peak: 5,
                        marks: String::new(),
                    },
                    SeriesRow {
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
