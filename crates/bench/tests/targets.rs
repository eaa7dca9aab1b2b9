//! The figures harness's own test: the table is well-formed, the binary's
//! target list is the table's, every row runs, and cells repeat.
//!
//! Runs at scale 0.004 so the whole table fits a debug-profile test run.
//! The shape checks are calibrated for `--scale 0.02` and above (the best
//! 8-shard speedup reads 1.85x here against its 2x floor), so they are
//! collected and reported, not enforced; CI's `figures --scale 0.02 all`
//! step enforces them.

use std::collections::BTreeSet;
use std::process::Command;
use tdts_bench::{names, run, select, Cell, RunConfig, TARGETS};

fn tiny() -> RunConfig {
    RunConfig { scale: 0.004, ..RunConfig::default() }
}

#[test]
fn names_are_unique_and_the_binary_lists_exactly_the_table() {
    let names = names();
    let unique: BTreeSet<&str> = TARGETS.iter().map(|t| t.name).collect();
    assert_eq!(names.len(), unique.len(), "rows of one target must be adjacent: {names:?}");
    assert!(!unique.contains("all"), "`all` is reserved");

    assert_eq!(select("all"), Some(names.clone()));
    assert_eq!(select("fig7"), Some(vec!["fig7"]));
    assert_eq!(select("nope"), None);

    let figures = |args: &[&str]| Command::new(env!("CARGO_BIN_EXE_figures")).args(args).output();
    let list = figures(&["--list"]).unwrap();
    assert!(list.status.success());
    assert_eq!(String::from_utf8(list.stdout).unwrap().lines().collect::<Vec<_>>(), names);

    let usage = figures(&[]).unwrap();
    assert_eq!(usage.status.code(), Some(2));
    let usage = String::from_utf8(usage.stderr).unwrap();
    assert!(usage.contains(&format!("<{}|all>", names.join("|"))), "{usage}");
    assert_eq!(figures(&["nope"]).unwrap().status.code(), Some(2));
}

#[test]
fn every_row_runs_and_cross_checks() {
    let cfg = tiny();
    assert!(cfg.verify);
    let mut off_scale = Vec::new();
    for name in names() {
        let ran = run(&cfg, name).unwrap_or_else(|why| panic!("{name}: {why}"));
        let rows = TARGETS.iter().filter(|t| t.name == name).count();
        assert!(ran.cells.len() >= rows, "{name}: {} cells from {rows} rows", ran.cells.len());
        off_scale.extend(ran.shape.err().map(|why| format!("{name}: {why}")));
    }
    eprintln!("shape checks that do not hold at scale {}: {off_scale:#?}", cfg.scale);
    assert!(run(&cfg, "nope").is_err());
}

#[test]
fn counted_cells_repeat() {
    let cells = |name: &str| -> Vec<Cell> { run(&tiny(), name).unwrap().cells };
    // Two paper rows (the CPU baseline among their arms) and a sharded one:
    // every field of every cell, its response seconds included.
    for name in ["fig4", "fig5", "ablation-sharding"] {
        assert_eq!(cells(name), cells(name), "{name}: cells differ");
    }
}

/// The CPU baseline's counted response does not fall as `d` grows: a
/// larger threshold visits at least as many nodes, refines at least as many
/// candidates and produces at least as many records per query.
#[test]
fn fig4_cpu_column_does_not_fall_with_d() {
    let ran = run(&tiny(), "fig4").unwrap();
    let cpu: Vec<&Cell> = ran.cells.iter().filter(|c| c.method == "CPU-RTree").collect();
    assert!(cpu.len() > 2, "{} CPU cells", cpu.len());
    for pair in cpu.windows(2) {
        let (lo, hi) = (pair[0], pair[1]);
        assert!(lo.d < hi.d);
        let (a, b) = (lo.report.response_seconds(), hi.report.response_seconds());
        assert!(a <= b, "CPU-RTree falls from {a} s at d = {} to {b} s at d = {}", lo.d, hi.d);
    }
}
