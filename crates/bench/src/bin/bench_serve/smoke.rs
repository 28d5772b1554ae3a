//! Keeps the benchmark compiling and honest under `cargo test`: every
//! workload runs at smoke size, and what it prints is held against what
//! `BENCHMARK.json` declares.

use crate::metrics::Metric;
use crate::run::{self, Args};
use crate::workloads::SPECS;

/// `BENCHMARK.json` sits at the repository root; the manifest directory is
/// this one when the benchmark builds as its own package and
/// `crates/bench` when it builds as a binary of `mv-bench`.
fn benchmark_json() -> String {
    let mut dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    loop {
        let candidate = dir.join("BENCHMARK.json");
        if candidate.is_file() {
            return std::fs::read_to_string(candidate).expect("BENCHMARK.json is readable");
        }
        assert!(dir.pop(), "no BENCHMARK.json above the manifest directory");
    }
}

/// The `name` of every object in the array under `key`.
fn declared_names(json: &str, key: &str) -> Vec<String> {
    let key_at = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let open = key_at + json[key_at..].find('[').expect("an array follows the key");
    let close = open + json[open..].find(']').expect("the array closes");
    json[open..close]
        .split("\"name\"")
        .skip(1)
        .map(|rest| rest.split('"').nth(1).expect("a quoted name").to_string())
        .collect()
}

fn names(metrics: &[Metric]) -> Vec<String> {
    metrics.iter().map(|m| m.name.to_string()).collect()
}

#[test]
fn every_workload_prints_the_declared_metrics() {
    let json = benchmark_json();
    let workloads: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
    assert_eq!(declared_names(&json, "workloads"), workloads);
    for spec in SPECS {
        let args = Args {
            seed: 7,
            seconds: 1.0,
            trace: None,
            smoke: true,
        };
        let report = run::run(spec, &args);
        assert!(
            report.failures.is_empty(),
            "{}: {:?}",
            spec.name,
            report.failures
        );
        assert!(report.attempted > 0);
        assert_eq!(
            names(&report.end_to_end),
            declared_names(&json, "end_to_end")
        );
        assert_eq!(names(&report.per_layer), declared_names(&json, "per_layer"));
        for m in report.end_to_end.iter().chain(&report.per_layer) {
            assert!(
                m.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{}",
                m.name
            );
            assert!(
                m.value.is_finite(),
                "{}: {} = {}",
                spec.name,
                m.name,
                m.value
            );
        }
    }
}
