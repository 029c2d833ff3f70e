//! Pass/fail reporting: verdict computation, deterministic CSV, and
//! self-contained HTML artifacts — for the backend × fault-class matrix
//! ([`MatrixCell`]) and for chaos soak sweeps ([`ChaosRow`]). Each row type
//! declares its columns once (`COLUMNS` and `values`); the CSV, the HTML
//! page (built with `locksim_trace::html`) and the harness's stdout table
//! all render those values.

use locksim_trace::html;

use crate::driver::DriveOutcome;
use crate::oracle::Violation;

/// One cell of the backend × fault-class matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatrixCell {
    /// Backend label (e.g. "lcu", "mcs").
    pub backend: String,
    /// Fault-class label (e.g. "none", "suspend", "migrate").
    pub fault: String,
    /// Verdict string: "pass", "LIVENESS", "FAIRNESS", "EXCLUSION", or
    /// "n/a" for combinations the backend does not support.
    pub verdict: String,
    /// Liveness violation count.
    pub liveness: usize,
    /// Fairness violation count.
    pub fairness: usize,
    /// Exclusion violation count.
    pub exclusion: usize,
    /// Injections the machine/backend accepted.
    pub injections: u64,
    /// Cycle the run stopped at.
    pub end_cycle: u64,
    /// Whether every thread ran to completion.
    pub finished: bool,
}

impl MatrixCell {
    /// Builds a cell from a driven run and its oracle verdicts. The verdict
    /// is [`ChaosRow::verdict_of`], the one ranking; faultsim drives with
    /// the deadlock detector off, so it names the most severe violated
    /// oracle (exclusion > liveness > fairness) or "pass" when none fired.
    pub fn from_run(
        backend: &str,
        fault: &str,
        outcome: &DriveOutcome,
        violations: &[Violation],
        finished: bool,
    ) -> Self {
        let count = |o: &str| violations.iter().filter(|v| v.oracle == o).count();
        MatrixCell {
            backend: backend.to_string(),
            fault: fault.to_string(),
            verdict: ChaosRow::verdict_of(outcome, violations).to_string(),
            liveness: count("liveness"),
            fairness: count("fairness"),
            exclusion: count("exclusion"),
            injections: outcome.injections_applied(),
            end_cycle: outcome.end_cycle,
            finished,
        }
    }

    /// Builds an "n/a" cell for a combination the backend does not support
    /// (e.g. FLT eviction on a software lock).
    pub fn not_applicable(backend: &str, fault: &str) -> Self {
        MatrixCell {
            backend: backend.to_string(),
            fault: fault.to_string(),
            verdict: "n/a".to_string(),
            liveness: 0,
            fairness: 0,
            exclusion: 0,
            injections: 0,
            end_cycle: 0,
            finished: false,
        }
    }

    /// Whether this cell passed (or was not applicable).
    pub fn ok(&self) -> bool {
        self.verdict == "pass" || self.verdict == "n/a"
    }

    /// Column names of the matrix: the HTML page's and the faultsim stdout
    /// table's headers.
    pub const COLUMNS: [&'static str; 9] = [
        "backend",
        "fault",
        "verdict",
        "liveness",
        "fairness",
        "exclusion",
        "injections",
        "end cycle",
        "finished",
    ];

    /// The cell as one row in [`MatrixCell::COLUMNS`] order — the values
    /// the CSV line, the HTML row and the stdout row all render.
    pub fn values(&self) -> [String; 9] {
        [
            self.backend.clone(),
            self.fault.clone(),
            self.verdict.clone(),
            self.liveness.to_string(),
            self.fairness.to_string(),
            self.exclusion.to_string(),
            self.injections.to_string(),
            self.end_cycle.to_string(),
            self.finished.to_string(),
        ]
    }
}

/// One row of a chaos soak sweep: a fuzz seed, the case it generated, and
/// the verdict its run produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosRow {
    /// The fuzz seed.
    pub seed: u64,
    /// Backend label the fuzzer picked for this seed.
    pub backend: String,
    /// Verdict: "pass", "DEADLOCK", "LIVENESS", "FAIRNESS" or "EXCLUSION".
    pub verdict: String,
    /// Liveness violation count.
    pub liveness: usize,
    /// Fairness violation count.
    pub fairness: usize,
    /// Exclusion violation count.
    pub exclusion: usize,
    /// Whether the quiescence detector fired.
    pub deadlock: bool,
    /// Fault events in the generated plan.
    pub events: usize,
    /// Fault events after shrinking (equals `events` for passing rows).
    pub shrunk_events: usize,
    /// Cycle the run stopped at.
    pub end_cycle: u64,
    /// Whether every thread ran to completion.
    pub finished: bool,
}

impl ChaosRow {
    /// The chaos verdict for a driven run: the most severe failure wins —
    /// exclusion > deadlock > liveness > fairness — else "pass". A deadlock
    /// outranks the liveness violations it inevitably also produces because
    /// it is the stronger statement (no possible progress, not just a
    /// too-long wait).
    pub fn verdict_of(outcome: &DriveOutcome, violations: &[Violation]) -> &'static str {
        let count = |o: &str| violations.iter().filter(|v| v.oracle == o).count();
        if count("exclusion") > 0 {
            "EXCLUSION"
        } else if outcome.deadlock.is_some() {
            "DEADLOCK"
        } else if count("liveness") > 0 {
            "LIVENESS"
        } else if count("fairness") > 0 {
            "FAIRNESS"
        } else {
            "pass"
        }
    }

    /// Builds a row from a driven run and its oracle verdicts.
    pub fn from_run(
        seed: u64,
        backend: &str,
        outcome: &DriveOutcome,
        violations: &[Violation],
        finished: bool,
        events: usize,
    ) -> Self {
        let count = |o: &str| violations.iter().filter(|v| v.oracle == o).count();
        ChaosRow {
            seed,
            backend: backend.to_string(),
            verdict: Self::verdict_of(outcome, violations).to_string(),
            liveness: count("liveness"),
            fairness: count("fairness"),
            exclusion: count("exclusion"),
            deadlock: outcome.deadlock.is_some(),
            events,
            shrunk_events: events,
            end_cycle: outcome.end_cycle,
            finished,
        }
    }

    /// Whether this seed's run passed.
    pub fn ok(&self) -> bool {
        self.verdict == "pass"
    }

    /// Column names of a sweep: the HTML page's and the chaossim stdout
    /// table's headers.
    pub const COLUMNS: [&'static str; 11] = [
        "seed",
        "backend",
        "verdict",
        "liveness",
        "fairness",
        "exclusion",
        "deadlock",
        "events",
        "shrunk",
        "end cycle",
        "finished",
    ];

    /// The row in [`ChaosRow::COLUMNS`] order — the values the CSV line,
    /// the HTML row and the stdout row all render.
    pub fn values(&self) -> [String; 11] {
        [
            self.seed.to_string(),
            self.backend.clone(),
            self.verdict.clone(),
            self.liveness.to_string(),
            self.fairness.to_string(),
            self.exclusion.to_string(),
            self.deadlock.to_string(),
            self.events.to_string(),
            self.shrunk_events.to_string(),
            self.end_cycle.to_string(),
            self.finished.to_string(),
        ]
    }
}

/// Renders a chaos sweep as CSV; byte-deterministic for the same rows.
pub fn chaos_csv(rows: &[ChaosRow]) -> String {
    csv_of(
        "seed,backend,verdict,liveness,fairness,exclusion,deadlock,events,\
         shrunk_events,end_cycle,finished",
        rows.iter().map(ChaosRow::values),
    )
}

/// Renders a chaos sweep as a self-contained HTML page.
pub fn chaos_html(rows: &[ChaosRow], title: &str) -> String {
    html::page(title, |out| {
        html::table(out, &ChaosRow::COLUMNS, rows.iter().map(ChaosRow::values));
    })
}

/// Renders the matrix as CSV. Output is a pure function of the cells, so
/// two same-seed runs produce byte-identical files.
pub fn csv(cells: &[MatrixCell]) -> String {
    csv_of(
        "backend,fault,verdict,liveness,fairness,exclusion,injections,end_cycle,finished",
        cells.iter().map(MatrixCell::values),
    )
}

/// Renders the matrix as a self-contained HTML page, one table row per
/// cell with verdict colouring.
pub fn html(cells: &[MatrixCell], title: &str) -> String {
    html::page(title, |out| {
        html::table(
            out,
            &MatrixCell::COLUMNS,
            cells.iter().map(MatrixCell::values),
        );
    })
}

fn csv_of<const N: usize>(header: &str, rows: impl Iterator<Item = [String; N]>) -> String {
    let mut s = format!("{header}\n");
    for row in rows {
        s.push_str(&row.join(","));
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::SuspensionWindows;
    use locksim_machine::RunExit;

    fn outcome(end_cycle: u64) -> DriveOutcome {
        DriveOutcome {
            exit: RunExit::TimeLimit,
            end_cycle,
            applied: Vec::new(),
            windows: SuspensionWindows::default(),
            deadlock: None,
        }
    }

    fn violation(oracle: &'static str) -> Violation {
        Violation {
            oracle,
            lock: 0x40,
            thread: 1,
            value: 2,
            at: 3,
        }
    }

    #[test]
    fn verdict_ranks_exclusion_over_liveness_over_fairness() {
        let o = outcome(100);
        let all = [
            violation("fairness"),
            violation("liveness"),
            violation("exclusion"),
        ];
        assert_eq!(
            MatrixCell::from_run("b", "f", &o, &all, false).verdict,
            "EXCLUSION"
        );
        assert_eq!(
            MatrixCell::from_run("b", "f", &o, &all[..2], false).verdict,
            "LIVENESS"
        );
        assert_eq!(
            MatrixCell::from_run("b", "f", &o, &all[..1], false).verdict,
            "FAIRNESS"
        );
        let clean = MatrixCell::from_run("b", "f", &o, &[], true);
        assert_eq!(clean.verdict, "pass");
        assert!(clean.ok());
        assert!(MatrixCell::not_applicable("b", "f").ok());
    }

    #[test]
    fn csv_is_deterministic_and_greppable() {
        let cells = vec![
            MatrixCell::from_run("lcu", "suspend", &outcome(500), &[], true),
            MatrixCell::from_run(
                "mcs",
                "suspend",
                &outcome(900),
                &[violation("liveness")],
                false,
            ),
            MatrixCell::not_applicable("mcs", "flt-evict"),
        ];
        let a = csv(&cells);
        let b = csv(&cells);
        assert_eq!(a, b);
        assert!(a.starts_with("backend,fault,verdict,"));
        assert!(a.contains("lcu,suspend,pass,0,0,0,0,500,true\n"));
        assert!(a.contains("mcs,suspend,LIVENESS,1,0,0,0,900,false\n"));
        assert!(a.contains("mcs,flt-evict,n/a,"));
    }

    #[test]
    fn chaos_verdict_ranks_deadlock_between_exclusion_and_liveness() {
        let mut dead = outcome(100);
        dead.deadlock = Some(crate::detect::DeadlockReport {
            at: 100,
            lock: 0x40,
            waiters: 1,
            chain: "lock 0x40: waiters t1(W); held by t0 (suspended)".to_string(),
        });
        let live = [violation("liveness")];
        let excl = [violation("exclusion"), violation("liveness")];
        assert_eq!(ChaosRow::verdict_of(&dead, &live), "DEADLOCK");
        assert_eq!(ChaosRow::verdict_of(&dead, &excl), "EXCLUSION");
        assert_eq!(ChaosRow::verdict_of(&outcome(100), &live), "LIVENESS");
        assert_eq!(
            ChaosRow::verdict_of(&outcome(100), &[violation("fairness")]),
            "FAIRNESS"
        );
        assert_eq!(ChaosRow::verdict_of(&outcome(100), &[]), "pass");
    }

    #[test]
    fn chaos_csv_is_deterministic_and_greppable() {
        let mut dead = outcome(7_000);
        dead.deadlock = Some(crate::detect::DeadlockReport {
            at: 7_000,
            lock: 0x40,
            waiters: 2,
            chain: String::new(),
        });
        let mut rows = vec![
            ChaosRow::from_run(3, "lcu", &outcome(500), &[], true, 4),
            ChaosRow::from_run(4, "mcs", &dead, &[violation("liveness")], false, 5),
        ];
        rows[1].shrunk_events = 1;
        let a = chaos_csv(&rows);
        assert_eq!(a, chaos_csv(&rows));
        assert!(a.starts_with("seed,backend,verdict,"));
        assert!(a.contains("3,lcu,pass,0,0,0,false,4,4,500,true\n"));
        assert!(a.contains("4,mcs,DEADLOCK,1,0,0,true,5,1,7000,false\n"));
        let page = chaos_html(&rows, "chaossim");
        assert!(page.starts_with("<!DOCTYPE html>"));
        assert!(page.contains("<td class=\"bad\">DEADLOCK</td>"));
    }

    #[test]
    fn html_is_self_contained() {
        let cells = vec![MatrixCell::from_run("lcu", "none", &outcome(1), &[], true)];
        let page = html(&cells, "faultsim");
        assert!(page.starts_with("<!DOCTYPE html>"));
        assert!(page.ends_with("</html>\n"));
        assert!(page.contains("<td class=\"ok\">pass</td>"));
        assert!(!page.contains("http"), "no external assets");
    }

    #[test]
    fn html_escapes_title_and_labels() {
        let cells = vec![MatrixCell::from_run(
            "a<b",
            "\"x\"&y",
            &outcome(1),
            &[],
            true,
        )];
        let page = html(&cells, "<script>alert(1)</script>");
        assert!(!page.contains("<script>"), "{page}");
        assert!(page.contains("<title>&lt;script&gt;alert(1)&lt;/script&gt;</title>"));
        assert!(page.contains("<td>a&lt;b</td>"));
        assert!(page.contains("<td>&quot;x&quot;&amp;y</td>"));
        let rows = vec![ChaosRow::from_run(3, "l&u", &outcome(500), &[], true, 4)];
        let page = chaos_html(&rows, "a & <b>");
        assert!(page.contains("<h1>a &amp; &lt;b&gt;</h1>"), "{page}");
        assert!(page.contains("<td>l&amp;u</td>"), "{page}");
    }
}
