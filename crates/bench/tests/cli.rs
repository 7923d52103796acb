//! `paper_tables` argument handling: a mistyped id or a removed command
//! must fail loudly instead of printing nothing and exiting 0.

use std::process::Command;

fn paper_tables(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_paper_tables"))
        .args(args)
        .output()
        .expect("paper_tables runs")
}

#[test]
fn unknown_arguments_print_usage_and_fail() {
    for args in [
        &["bench-gat", "BENCH_9.json"][..],
        &["check_obs"],
        &["check-obs"],
        &["scenario-smoke"],
        &["bench-qps"],
        &["bench-edit"],
        &["t1", "e10"],
    ] {
        let out = paper_tables(args);
        assert!(!out.status.success(), "{args:?} exited 0");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: paper_tables"), "{args:?}: {stderr}");
        assert!(
            out.stdout.is_empty(),
            "{args:?} ran something before rejecting its arguments"
        );
    }
}

#[test]
fn known_section_ids_run() {
    let out = paper_tables(&["t1", "b2"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("T1 — the sequence-indexing table"));
    assert!(stdout.contains("B2 — '=' is existential"));
}
