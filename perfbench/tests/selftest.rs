//! Self-tests of the benchmark's traced run. They drive the release
//! binary on the real workloads, so each takes a minute or more:
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;

/// The seed `oscar-reports` runs with; its outputs have committed
/// digests.
const DEFAULT_SEED: &str = "97144116";
/// A second seed, with no committed digest.
const OTHER_SEED: &str = "7";

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repository root")
        .to_path_buf()
}

/// The `"name"` values of one metric list in `BENCHMARK.json`.
fn declared(list: &str) -> Vec<String> {
    let json = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json is readable");
    let section = json
        .split_once(&format!("\"{list}\": ["))
        .expect("the metric list exists")
        .1;
    let section = section.split_once(']').expect("the list is closed").0;
    section
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s.split('"').next().expect("a quoted name").to_string())
        .collect()
}

/// One benchmark run's result line.
struct Outcome {
    correct: bool,
    metrics: Vec<(String, f64, String)>,
}

impl Outcome {
    fn get(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .unwrap_or_else(|| panic!("metric {name} missing"))
            .1
    }
}

fn run(workload: &str, seed: &str, trace: bool) -> Outcome {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .args(["--workload", workload, "--seed", seed, "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("the benchmark binary runs");
    assert!(
        out.status.success(),
        "{workload} seed {seed} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let line = stdout.lines().last().expect("a result line");
    let body = line
        .split_once("\"metrics\": {")
        .expect("a metrics object")
        .1;
    let metrics = body
        .split("}, ")
        .filter_map(|entry| {
            let (name, rest) = entry.split_once(": {\"value\": ")?;
            let (value, unit) = rest.split_once(", \"unit\": ")?;
            Some((
                name.trim().trim_matches('"').to_string(),
                value.parse().ok()?,
                unit.trim_end_matches('}').trim_matches('"').to_string(),
            ))
        })
        .collect();
    Outcome {
        correct: line.starts_with("{\"correct\": true,"),
        metrics,
    }
}

/// Two traced runs at one seed agree on every count; a second seed
/// runs clean; the spans cover at least 90 % of the traced wall time.
fn check_traced(workload: &str) {
    let a = run(workload, DEFAULT_SEED, true);
    let b = run(workload, DEFAULT_SEED, true);
    let other = run(workload, OTHER_SEED, true);
    for name in declared("per_layer") {
        a.get(&name);
    }
    for (name, value, unit) in &a.metrics {
        if matches!(unit.as_str(), "count" | "cycles" | "B") {
            assert_eq!(*value, b.get(name), "{workload}: count {name} changed");
        }
    }
    for (o, seed) in [(&a, DEFAULT_SEED), (&b, DEFAULT_SEED), (&other, OTHER_SEED)] {
        assert!(o.correct, "{workload} seed {seed}: a check failed");
        assert_eq!(o.get("error_rate"), 0.0, "{workload} seed {seed}");
        assert!(
            o.get("trace.coverage") >= 0.9,
            "{workload} seed {seed}: spans miss unattributed_s = {} s",
            o.get("unattributed_s")
        );
    }
}

#[test]
fn traced_paper_warm() {
    check_traced("paper-warm");
}

#[test]
fn traced_replay() {
    check_traced("replay");
}

#[test]
fn traced_scale16_dir() {
    check_traced("scale16-dir");
}

#[test]
fn end_to_end_run_reports_every_declared_metric() {
    let o = run("scale16-dir", OTHER_SEED, false);
    assert!(o.correct);
    let names: Vec<&str> = o.metrics.iter().map(|(n, _, _)| n.as_str()).collect();
    assert_eq!(names, declared("end_to_end"));
    for (name, value, _) in &o.metrics {
        assert!(*value > 0.0, "{name} must never be 0");
    }
}
