//! Self-contained HTML report for lockstat: per-lock tables, inline-SVG
//! histogram bars, the starvation-watchdog verdicts, and the blocking-chain
//! listing. No external assets, scripts, or stylesheets — the file opens
//! offline and diffs byte-for-byte across same-seed runs.

use std::fmt::Write as _;

use crate::chain::LockChain;
use crate::lockstat::{LockStats, StarvationFlag};
use crate::sketch::QuantileSketch;

/// One backend's worth of report data.
pub struct HtmlSeries<'a> {
    /// Display label, e.g. "ssb" or "lcu".
    pub label: &'a str,
    /// The per-lock stats collected for this run.
    pub stats: &'a LockStats,
    /// Longest blocking chains reconstructed from this run's trace.
    pub chains: &'a [LockChain],
    /// Simulated end time of the run (for the overdue-waiter scan).
    pub end_cycles: u64,
}

/// Renders the full report as one HTML document.
pub fn render_html(title: &str, series: &[HtmlSeries<'_>]) -> String {
    let mut out = String::with_capacity(16 * 1024);
    out.push_str("<!doctype html>\n<html><head><meta charset=\"utf-8\">\n<title>");
    out.push_str(&esc(title));
    out.push_str("</title>\n<style>\n");
    out.push_str(CSS);
    out.push_str("</style>\n</head>\n<body>\n");
    let _ = writeln!(out, "<h1>{}</h1>", esc(title));
    for s in series {
        render_series(&mut out, s);
    }
    out.push_str("</body></html>\n");
    out
}

const CSS: &str = "\
body { font-family: monospace; margin: 2em; color: #222; }
h1 { font-size: 1.4em; } h2 { font-size: 1.2em; margin-top: 1.5em; }
h3 { font-size: 1em; margin-bottom: 0.3em; }
table { border-collapse: collapse; margin: 0.5em 0; }
th, td { border: 1px solid #bbb; padding: 2px 8px; text-align: right; }
th { background: #eee; }
td.l, th.l { text-align: left; }
.ok { color: #070; } .starved { color: #a00; font-weight: bold; }
svg { margin: 0.2em 0; }
";

fn render_series(out: &mut String, s: &HtmlSeries<'_>) {
    let _ = writeln!(out, "<h2>backend: {}</h2>", esc(s.label));

    out.push_str(
        "<table>\n<tr><th class=\"l\">lock</th><th>acq r</th><th>acq w</th>\
         <th>rel r</th><th>rel w</th><th>fails</th>\
         <th>wait p50</th><th>wait p99</th><th>max wait r</th><th>max wait w</th>\
         <th>hold p50</th><th>queue max</th><th>readers max</th>\
         <th class=\"l\">backend counters</th></tr>\n",
    );
    for (addr, st) in s.stats.locks() {
        let aux: Vec<String> = st.aux.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let _ = writeln!(
            out,
            "<tr><td class=\"l\">{addr:#x}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td>\
             <td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td>\
             <td>{}</td><td>{}</td><td class=\"l\">{}</td></tr>",
            st.acquires[0],
            st.acquires[1],
            st.releases[0],
            st.releases[1],
            st.fails,
            st.handoff.quantile(0.50).unwrap_or(0),
            st.handoff.quantile(0.99).unwrap_or(0),
            st.max_wait[0],
            st.max_wait[1],
            st.hold.quantile(0.50).unwrap_or(0),
            st.max_queue,
            st.max_readers,
            esc(&aux.join(" "))
        );
    }
    out.push_str("</table>\n");

    for (addr, st) in s.stats.locks() {
        let _ = writeln!(out, "<h3>lock {addr:#x} handoff wait (cycles)</h3>");
        svg_hist(out, &st.handoff);
        let _ = writeln!(out, "<h3>lock {addr:#x} hold time (cycles)</h3>");
        svg_hist(out, &st.hold);
    }

    render_watchdog(out, s);
    render_chains_html(out, s.chains);
}

fn render_watchdog(out: &mut String, s: &HtmlSeries<'_>) {
    out.push_str("<h3>starvation watchdog</h3>\n");
    let Some(threshold) = s.stats.watchdog_cycles() else {
        out.push_str("<p>not armed</p>\n");
        return;
    };
    let flags = s.stats.flags();
    let overdue = s.stats.overdue(s.end_cycles);
    if flags.is_empty() && overdue.is_empty() {
        let _ = writeln!(
            out,
            "<p class=\"ok\">OK — no wait exceeded {threshold} cycles</p>"
        );
        return;
    }
    let _ = writeln!(
        out,
        "<p class=\"starved\">STARVED — {} flags, {} overdue (threshold {threshold} cycles)</p>",
        flags.len(),
        overdue.len()
    );
    out.push_str(
        "<table>\n<tr><th>at</th><th class=\"l\">lock</th><th>thread</th>\
         <th class=\"l\">mode</th><th>waited</th><th class=\"l\">outcome</th></tr>\n",
    );
    for f in flags.iter().chain(&overdue) {
        flag_row(out, f);
    }
    out.push_str("</table>\n");
}

fn flag_row(out: &mut String, f: &StarvationFlag) {
    let _ = writeln!(
        out,
        "<tr><td>{}</td><td class=\"l\">{:#x}</td><td>{}</td><td class=\"l\">{}</td>\
         <td>{}</td><td class=\"l\">{}</td></tr>",
        f.at,
        f.lock,
        f.thread,
        if f.write { "write" } else { "read" },
        f.waited,
        f.outcome.label()
    );
}

fn render_chains_html(out: &mut String, chains: &[LockChain]) {
    out.push_str("<h3>longest blocking chains</h3>\n");
    if chains.is_empty() {
        out.push_str("<p>no lock grants in trace</p>\n");
        return;
    }
    let mut by_depth: Vec<&LockChain> = chains.iter().collect();
    by_depth.sort_by_key(|c| std::cmp::Reverse(c.links.len()));
    out.push_str(
        "<table>\n<tr><th class=\"l\">lock</th><th>depth</th><th>span</th>\
         <th>total wait</th><th class=\"l\">chain</th></tr>\n",
    );
    for c in by_depth {
        let path: Vec<String> = c
            .links
            .iter()
            .map(|l| format!("t{}:{}", l.thread, if l.write { "w" } else { "r" }))
            .collect();
        let _ = writeln!(
            out,
            "<tr><td class=\"l\">{:#x}</td><td>{}</td><td>{}</td><td>{}</td>\
             <td class=\"l\">{}</td></tr>",
            c.lock,
            c.links.len(),
            c.span,
            c.total_wait,
            path.join(" &rarr; ")
        );
    }
    out.push_str("</table>\n");
}

/// Inline SVG bar chart of a sketch's power-of-two octaves: one bar per
/// occupied octave, height proportional to count, low bound labelled
/// underneath.
fn svg_hist(out: &mut String, h: &QuantileSketch) {
    let buckets = h.octaves();
    if buckets.is_empty() {
        out.push_str("<p>(empty)</p>\n");
        return;
    }
    let max = buckets.iter().map(|&(_, c)| c).max().unwrap_or(1).max(1);
    const BAR_W: u64 = 34;
    const GAP: u64 = 6;
    const H: u64 = 80;
    const LABEL_H: u64 = 14;
    let width = buckets.len() as u64 * (BAR_W + GAP) + GAP;
    let _ = writeln!(
        out,
        "<svg width=\"{width}\" height=\"{}\" role=\"img\">",
        H + LABEL_H + 14
    );
    for (i, &(low, count)) in buckets.iter().enumerate() {
        let bh = (count * H).div_ceil(max);
        let x = GAP + i as u64 * (BAR_W + GAP);
        let y = H - bh;
        let _ = writeln!(
            out,
            "<rect x=\"{x}\" y=\"{y}\" width=\"{BAR_W}\" height=\"{bh}\" fill=\"#48f\"/>\
             <text x=\"{tx}\" y=\"{cy}\" font-size=\"9\" text-anchor=\"middle\">{count}</text>\
             <text x=\"{tx}\" y=\"{ly}\" font-size=\"9\" text-anchor=\"middle\">{low}</text>",
            tx = x + BAR_W / 2,
            cy = y.saturating_sub(2).max(8),
            ly = H + LABEL_H
        );
    }
    out.push_str("</svg>\n");
}

/// Minimal HTML escaping for text nodes and attribute values.
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stats() -> LockStats {
        let mut ls = LockStats::new();
        ls.enable(Some(100));
        ls.on_request(0x40, 0, true, 0);
        ls.on_request(0x40, 1, true, 0);
        ls.on_grant(0x40, 0, true, 4, 4);
        ls.on_release(0x40, 0, true, 200);
        ls.on_grant(0x40, 1, true, 400, 404);
        ls.on_release(0x40, 1, true, 150);
        ls
    }

    #[test]
    fn report_is_selfcontained_and_escaped() {
        let ls = sample_stats();
        let html = render_html(
            "lockstat <quick>",
            &[HtmlSeries {
                label: "ssb & friends",
                stats: &ls,
                chains: &[],
                end_cycles: 1000,
            }],
        );
        assert!(html.starts_with("<!doctype html>"));
        assert!(html.contains("lockstat &lt;quick&gt;"));
        assert!(html.contains("ssb &amp; friends"));
        assert!(html.contains("<svg"));
        assert!(html.contains("STARVED"));
        // Self-contained: no external fetches of any kind.
        assert!(!html.contains("http://") && !html.contains("https://"));
        assert!(!html.contains("<script"));
    }

    #[test]
    fn quiet_watchdog_renders_ok() {
        let mut ls = LockStats::new();
        ls.enable(Some(1_000_000));
        ls.on_request(0x40, 0, true, 0);
        ls.on_grant(0x40, 0, true, 4, 4);
        ls.on_release(0x40, 0, true, 10);
        let html = render_html(
            "t",
            &[HtmlSeries {
                label: "lcu",
                stats: &ls,
                chains: &[],
                end_cycles: 100,
            }],
        );
        assert!(html.contains("class=\"ok\">OK"), "{html}");
        assert!(!html.contains("STARVED"));
    }

    #[test]
    fn render_is_deterministic() {
        let ls = sample_stats();
        let mk = || {
            render_html(
                "t",
                &[HtmlSeries {
                    label: "x",
                    stats: &ls,
                    chains: &[],
                    end_cycles: 500,
                }],
            )
        };
        assert_eq!(mk(), mk());
    }
}
