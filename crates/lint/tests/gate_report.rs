//! The CI gate's report, pinned: `mv-lint` over the section 5 workload at
//! the CI size, with the executed cross-check, the audit and the
//! maintenance gate on, reports exactly the diagnostic lines of
//! `fixtures/gate_report.jsonl`, in order. `--prove` is left out (its k=3
//! run stays in the CI step), and four maintenance rounds stand in for
//! sixteen: none of them reports anything.
//!
//! A change that moves the matcher's substitutes, the audit's findings,
//! the workload generator or a rule's message changes the report on
//! purpose; nothing else should. Regenerate the fixture with the run
//! below (`--json --out report.json`) and review its diff:
//!
//! ```text
//! grep '^    {"rule"' report.json | sed 's/^    //; s/,$//' > fixtures/gate_report.jsonl
//! ```

use std::process::Command;

#[test]
fn gate_report_matches_the_pinned_fixture() {
    let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("gate_report.json");
    let run = Command::new(env!("CARGO_BIN_EXE_mv-lint"))
        .args(["--views", "200", "--queries", "100", "--exec-check", "25"])
        .args(["--audit", "--maintain", "4", "--json", "--out"])
        .arg(&out)
        .output()
        .expect("mv-lint runs");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(run.status.success(), "mv-lint failed:\n{stderr}");
    let report = std::fs::read_to_string(&out).expect("mv-lint wrote its report");

    // Every substitute and every query's plan was executed.
    let gate = "\"exec_checked\": 4, \"plans_checked\": 100,";
    assert!(report.contains(gate), "{report}");

    let got: Vec<&str> = (report.lines())
        .filter(|l| l.starts_with("    {\"rule\""))
        .map(|l| l.trim().trim_end_matches(','))
        .collect();
    let pinned: Vec<&str> = include_str!("../fixtures/gate_report.jsonl")
        .lines()
        .collect();
    for i in 0..got.len().max(pinned.len()) {
        assert_eq!(got.get(i), pinned.get(i), "diagnostic {i}");
    }
}
