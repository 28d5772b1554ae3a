//! Integration tests for the MV2xx source-discipline pass: the unmutated
//! workspace lints clean, and each corruption fixture under
//! `fixtures/source/` is flagged with exactly its rule.

use mv_lint::source::{find_workspace_root, lint_source, lint_workspace};
use std::path::Path;

fn workspace_root() -> std::path::PathBuf {
    find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above crates/lint")
}

/// The real workspace carries zero MV2xx findings: every raw primitive
/// lives in an allowlisted home or justifies itself with an allow.
#[test]
fn workspace_is_clean() {
    let (diags, scanned) = lint_workspace(&workspace_root()).expect("workspace scan");
    assert!(
        scanned > 50,
        "expected to scan the whole workspace, saw only {scanned} files"
    );
    assert!(
        diags.is_empty(),
        "workspace must be MV2xx-clean, got:\n{}",
        diags
            .iter()
            .map(|d| format!("  {d}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Every fixture is named `mvNNN_*.rs` and must be flagged with rule
/// MVNNN (at least once, and with no *other* rule misfiring).
#[test]
fn fixtures_are_flagged() {
    let dir = workspace_root().join("crates/lint/fixtures/source");
    let mut seen_rules = std::collections::BTreeSet::new();
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("fixtures/source exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    entries.sort();
    assert!(
        entries.len() >= 5,
        "expected at least one fixture per MV2xx rule, found {}",
        entries.len()
    );
    for path in entries {
        let name = path.file_name().unwrap().to_string_lossy().to_string();
        let expected = name[..5].to_uppercase(); // "mv201_..." -> "MV201"
        let src = std::fs::read_to_string(&path).expect("fixture readable");
        // Fixtures are linted under a non-allowlisted pseudo-path so the
        // rule logic, not the path allowlist, decides.
        let diags = lint_source(&format!("crates/fixture/src/{name}"), &src);
        assert!(
            diags.iter().any(|d| d.rule.code() == expected),
            "fixture {name} must trigger {expected}, got: {:?}",
            diags.iter().map(|d| d.rule.code()).collect::<Vec<_>>()
        );
        for d in &diags {
            assert_eq!(
                d.rule.code(),
                expected,
                "fixture {name} fired an unexpected rule: {d}"
            );
        }
        seen_rules.insert(expected);
    }
    assert_eq!(
        seen_rules.into_iter().collect::<Vec<_>>(),
        vec!["MV201", "MV202", "MV203", "MV204", "MV205", "MV206", "MV207"],
        "fixtures must cover every MV2xx rule"
    );
}

/// The diagnostics carry the MV2xx codes through the standard JSON
/// rendering, so `mv-lint --source` reports look like the MV0xx bands.
#[test]
fn findings_render_like_other_bands() {
    let diags = lint_source("crates/x/src/lib.rs", "use std::sync::Mutex;\n");
    assert_eq!(diags.len(), 1);
    let json = diags[0].to_json();
    assert!(json.contains("\"rule\": \"MV201\""));
    assert!(json.contains("\"name\": \"raw-sync-primitive\""));
    assert!(json.contains("crates/x/src/lib.rs:1"));
}
