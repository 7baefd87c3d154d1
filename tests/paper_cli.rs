//! The `sparqlog-paper` entry point, driven as a process: `all` prints
//! exactly what its sections print one by one, reproducibly, and a bad
//! command line exits 2 with the section list.

use std::process::{Command, Output};

/// `all`'s sections, in order.
const ALL: [&str; 12] = [
    "table1", "table2", "fig1", "table3", "sec44", "sec52", "fig5", "table4", "sec61", "sec62",
    "table5", "table6",
];

/// A small corpus; a short streak window keeps Table 6 cheap in debug builds.
const FLAGS: &str = "--scale 1e-6 --cap 40 --entries 200 --window 4";

fn paper(args: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sparqlog-paper"))
        .args(args.split_whitespace())
        .env("SPARQLOG_WORKERS", "1")
        .output()
        .expect("sparqlog-paper runs")
}

fn stdout_of(args: &str) -> Vec<u8> {
    let out = paper(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{args}: {stderr}");
    out.stdout
}

#[test]
fn all_prints_each_section_as_its_own_run_would_and_repeats_byte_for_byte() {
    let all = stdout_of(&format!("all {FLAGS}"));
    let sections: Vec<u8> = ALL
        .iter()
        .flat_map(|id| stdout_of(&format!("{id} {FLAGS}")))
        .collect();
    assert!(
        all == sections,
        "`all` differs from its sections one by one"
    );
    assert!(stdout_of(&format!("all {FLAGS}")) == all, "two runs differ");
}

#[test]
fn an_unknown_section_or_flag_exits_2_with_the_section_list() {
    for args in ["table9", "all --bogus", "fig3 --nodes", ""] {
        let out = paper(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        for id in ALL.iter().chain(&["fig3"]) {
            assert!(stderr.contains(id), "{args:?}: {stderr}");
        }
    }
}
