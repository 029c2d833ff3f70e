//! The one HTML emitter. Every page the workspace publishes — the lockstat
//! report, the faultsim matrix and chaossim sweep pages, and the run-ledger
//! dashboard — is built from these pieces: the escaper [`esc`], one
//! document head with one stylesheet ([`page`]), one table writer
//! ([`table`]), one rule colouring verdicts ([`verdict_class`]), and
//! the two inline-SVG charts ([`octave_bars`], [`line_chart`]).
//!
//! Pages are self-contained: no external assets, scripts, or stylesheets,
//! so a file opens offline and diffs byte-for-byte across same-seed runs.

use std::fmt::Write as _;

use crate::sketch::QuantileSketch;

/// The one stylesheet. `num` cells are right-aligned; `ok`/`na`/`bad` are
/// the [`verdict_class`] colours.
const CSS: &str = "\
body{font-family:system-ui,sans-serif;margin:2rem;color:#1a2733}\
h1{font-size:1.5rem}h2{font-size:1.15rem;margin-top:2rem;border-bottom:2px solid #d7e0e8;padding-bottom:.3rem}\
h3{font-size:1rem;margin-bottom:.3rem}\
table{border-collapse:collapse;margin:.7rem 0;font-size:.85rem}\
th,td{border:1px solid #c8d2dc;padding:.25rem .55rem;text-align:left}\
th{background:#eef3f7}\
td.num{text-align:right;font-variant-numeric:tabular-nums}\
.ok{background:#e6f4e6}.bad{background:#fae3e3;font-weight:bold}.na{color:#8a97a3}\
.meta{color:#5a6b7a;font-size:.8rem}\
svg{background:#fbfcfe;border:1px solid #d7e0e8;margin:.4rem 0}\
.legend{font-size:.78rem;color:#5a6b7a}\
";

/// Builds one page: the document head with the shared stylesheet, `title`
/// as both `<title>` and `<h1>`, then whatever `body` writes.
pub fn page(title: &str, body: impl FnOnce(&mut String)) -> String {
    let mut out = String::with_capacity(16 * 1024);
    out.push_str("<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\"><title>");
    push_esc(&mut out, title);
    let _ = write!(out, "</title><style>{CSS}</style></head><body>\n<h1>");
    push_esc(&mut out, title);
    out.push_str("</h1>\n");
    body(&mut out);
    out.push_str("</body></html>\n");
    out
}

/// The one rule colouring a verdict: `ok` for a pass (`pass`, `ok`, or
/// the corpus's `none`), `na` for a check that did not apply (`n/a`,
/// `skip`), and `bad` for anything else — a violated oracle, a deadlock,
/// a starved waiter, a failed gate. Case-insensitive.
pub fn verdict_class(verdict: &str) -> &'static str {
    let is = |v: &str| verdict.eq_ignore_ascii_case(v);
    if is("pass") || is("ok") || is("none") {
        "ok"
    } else if is("n/a") || is("skip") {
        "na"
    } else {
        "bad"
    }
}

/// Writes one table: a header row, then one row per entry of `rows`.
/// Cells are escaped, whole numbers are right-aligned, and the cells under
/// a `verdict` header are coloured by [`verdict_class`].
pub fn table<R, S>(out: &mut String, headers: &[&str], rows: impl IntoIterator<Item = R>)
where
    R: AsRef<[S]>,
    S: AsRef<str>,
{
    out.push_str("<table>\n<tr>");
    for h in headers {
        out.push_str("<th>");
        push_esc(out, h);
        out.push_str("</th>");
    }
    out.push_str("</tr>\n");
    let verdict_col = headers.iter().position(|&h| h == "verdict");
    for row in rows {
        out.push_str("<tr>");
        for (i, cell) in row.as_ref().iter().enumerate() {
            let cell = cell.as_ref();
            if Some(i) == verdict_col {
                let _ = write!(out, "<td class=\"{}\">", verdict_class(cell));
            } else if !cell.is_empty() && cell.bytes().all(|b| b.is_ascii_digit()) {
                out.push_str("<td class=\"num\">");
            } else {
                out.push_str("<td>");
            }
            push_esc(out, cell);
            out.push_str("</td>");
        }
        out.push_str("</tr>\n");
    }
    out.push_str("</table>\n");
}

/// Inline SVG bar chart of a sketch's power-of-two octaves: one bar per
/// occupied octave, height proportional to count, low bound labelled
/// underneath.
pub fn octave_bars(out: &mut String, h: &QuantileSketch) {
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

/// One polyline of a [`line_chart`]: `(x, y)` samples, with y scaled
/// against `y_max`.
pub struct Line<'a> {
    /// The samples.
    pub points: &'a [(u64, f64)],
    /// The y value drawn at the top of the chart.
    pub y_max: f64,
    /// Stroke colour.
    pub color: &'a str,
}

/// Inline SVG line chart, `w`×`h` pixels: every line scaled over x in
/// `0..=x_max`, plus a dashed vertical rule at each `(x, title)` mark with
/// `title` as its hover text.
pub fn line_chart(
    out: &mut String,
    (w, h): (u32, u32),
    x_max: u64,
    lines: &[Line<'_>],
    marks: &[(u64, &str)],
) {
    let px = |x: u64| (x as f64 / x_max.max(1) as f64) * f64::from(w - 10) + 5.0;
    let _ = write!(
        out,
        "<svg width=\"{w}\" height=\"{h}\" viewBox=\"0 0 {w} {h}\" role=\"img\">"
    );
    for line in lines.iter().filter(|l| !l.points.is_empty()) {
        let ys = if line.y_max <= 0.0 { 1.0 } else { line.y_max };
        let _ = write!(
            out,
            "<polyline fill=\"none\" stroke=\"{}\" stroke-width=\"1.5\" points=\"",
            line.color
        );
        for (i, &(x, y)) in line.points.iter().enumerate() {
            let py = f64::from(h - 8) - (y / ys) * f64::from(h - 16) + 4.0;
            let sep = if i == 0 { "" } else { " " };
            let _ = write!(out, "{sep}{:.1},{py:.1}", px(x));
        }
        out.push_str("\"/>");
    }
    for &(x, title) in marks {
        let _ = write!(
            out,
            "<line x1=\"{x:.1}\" y1=\"4\" x2=\"{x:.1}\" y2=\"{}\" stroke=\"#c0392b\" \
             stroke-width=\"1\" stroke-dasharray=\"3,2\"><title>",
            h - 4,
            x = px(x)
        );
        push_esc(out, title);
        out.push_str("</title></line>");
    }
    out.push_str("</svg>");
}

/// Minimal HTML escaping for text nodes and attribute values.
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    push_esc(&mut out, s);
    out
}

fn push_esc(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_escapes_and_classes_cells() {
        let html = page("a <b>", |out| {
            table(out, &["name", "n", "verdict"], [["x&y", "7", "LIVENESS"]]);
            table(
                out,
                &["verdict"],
                [["pass"], ["OK"], ["none"], ["n/a"], ["skip"]],
            );
        });
        assert!(html.starts_with("<!DOCTYPE html>") && html.ends_with("</html>\n"));
        assert!(html.contains("<title>a &lt;b&gt;</title>"));
        assert!(html.contains(
            "<tr><td>x&amp;y</td><td class=\"num\">7</td><td class=\"bad\">LIVENESS</td></tr>"
        ));
        assert_eq!(html.matches("<td class=\"ok\">").count(), 3, "{html}");
        assert_eq!(html.matches("<td class=\"na\">").count(), 2, "{html}");
    }

    #[test]
    fn line_chart_scales_points_and_marks() {
        let mut out = String::new();
        let points = [(0, 0.0), (50, 10.0), (100, 5.0)];
        let line = Line {
            points: &points,
            y_max: 10.0,
            color: "#123",
        };
        line_chart(&mut out, (110, 116), 100, &[line], &[(50, "fault <x>")]);
        // x: 0..100 -> 5..105; y: 0..10 -> 112..12.
        assert!(
            out.contains("points=\"5.0,112.0 55.0,12.0 105.0,62.0\""),
            "{out}"
        );
        assert!(out.contains("x1=\"55.0\""), "{out}");
        assert!(out.contains("<title>fault &lt;x&gt;</title>"), "{out}");
    }
}
