//! Replay suite for `tests/corpus/`: every checked-in shrunk violation must
//! reproduce its recorded verdict byte-deterministically. Entries are
//! produced by `chaossim --corpus-out`; each file's header carries the
//! regeneration command for its seed.

use locksim::faults::ChaosScenario;
use locksim::harness::chaos::{expect_label, replay, ChaosRun, DEFAULT_QUIESCE};
use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

fn corpus_entries() -> Vec<(String, ChaosScenario)> {
    let mut entries: Vec<_> = std::fs::read_dir(corpus_dir())
        .expect("tests/corpus must exist")
        .filter_map(|e| {
            let path = e.expect("readable dir entry").path();
            if path.extension().is_some_and(|x| x == "txt") {
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                let text = std::fs::read_to_string(&path).expect("readable corpus file");
                let sc = ChaosScenario::parse(&text)
                    .unwrap_or_else(|err| panic!("{name}: corpus entry fails to parse: {err}"));
                Some((name, sc))
            } else {
                None
            }
        })
        .collect();
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    entries
}

#[test]
fn corpus_is_not_empty() {
    assert!(
        !corpus_entries().is_empty(),
        "tests/corpus holds no scenarios — the replay suite is vacuous"
    );
}

#[test]
fn every_corpus_entry_reproduces_its_recorded_verdict() {
    for (name, sc) in corpus_entries() {
        let run = replay(&sc, DEFAULT_QUIESCE)
            .unwrap_or_else(|err| panic!("{name}: replay refused: {err}"));
        assert_eq!(
            expect_label(&run.verdict),
            sc.expect,
            "{name}: verdict drifted (got {}, corpus says {})",
            run.verdict,
            sc.expect
        );
        if sc.expect == "deadlock" {
            let report = run
                .outcome
                .deadlock
                .as_ref()
                .unwrap_or_else(|| panic!("{name}: deadlock entry lacks a report"));
            assert!(!report.chain.is_empty(), "{name}: empty blocking chain");
        }
    }
}

#[test]
fn corpus_replays_are_byte_deterministic() {
    for (name, sc) in corpus_entries() {
        let snap = |run: &ChaosRun| {
            (
                run.outcome.end_cycle,
                run.outcome.exit,
                run.outcome.applied.len(),
                run.outcome.deadlock.clone(),
                run.violations.clone(),
                run.finished,
                run.verdict.clone(),
            )
        };
        let a = replay(&sc, DEFAULT_QUIESCE).expect("first replay");
        let b = replay(&sc, DEFAULT_QUIESCE).expect("second replay");
        assert_eq!(snap(&a), snap(&b), "{name}: replay is not deterministic");
    }
}
