//! Golden for the LCU ablation table: every (ablation, setting) row must
//! reproduce its recorded simulated cycles exactly. The sizes are fixed,
//! independent of `LOCKSIM_QUICK`, so any drift here is a change in the
//! simulated protocol.

use locksim::harness::figs::ablations;

const GOLDEN: &[(&str, &str, u64)] = &[
    ("direct_transfer", "direct", 174_070),
    ("direct_transfer", "via_lrt", 310_002),
    ("fast_reacquire", "on", 55_294),
    ("fast_reacquire", "off", 61_129),
    ("grant_timeout", "timeout_200", 214_184),
    ("grant_timeout", "timeout_1000", 254_442),
    ("grant_timeout", "timeout_5000", 5_365_484),
    ("lcu_entries", "entries_2", 51_210),
    ("lcu_entries", "entries_8", 55_294),
    ("lcu_entries", "entries_16", 60_556),
    ("reservation", "on", 1_233_033),
    ("reservation", "off", 1_113_816),
    ("flt", "off", 37_500),
    ("flt", "entries_4", 4_731),
];

#[test]
fn ablation_table_matches_recorded_cycles() {
    let tables = ablations();
    assert_eq!(tables.len(), 1);
    assert_eq!(tables[0].columns, ["ablation", "setting", "cycles"]);
    let got: Vec<(&str, &str, u64)> = tables[0]
        .rows
        .iter()
        .map(|r| {
            let cycles = r[2].parse().expect("cycles cell is an integer");
            (r[0].as_str(), r[1].as_str(), cycles)
        })
        .collect();
    assert_eq!(got, GOLDEN);
}
