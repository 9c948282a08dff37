//! Every workload runs, in both modes, and prints exactly the names that
//! `BENCHMARK.json` promises.
//!
//! `cargo test --manifest-path benchmark/Cargo.toml` — not part of tier-1.

use std::collections::BTreeSet;
use std::process::Command;

use serde_json::Value;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn names(doc: &Value, key: &str) -> BTreeSet<String> {
    let rows = doc
        .get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("{key} missing"));
    let names: BTreeSet<String> = rows
        .iter()
        .map(|r| {
            r.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(names.len(), rows.len(), "{key}: a name is used twice");
    for n in &names {
        let ok = n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
        assert!(ok, "{key}: bad name {n:?}");
    }
    names
}

/// Runs one workload for one iteration; returns the parsed result line.
fn run(workload: &str, trace: &str) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_forty-benchmark"))
        .args([
            "run",
            "--workload",
            workload,
            "--seed",
            "7",
            "--iters",
            "1",
            "--trace",
            trace,
        ])
        .args(["--out", env!("CARGO_TARGET_TMPDIR")])
        .output()
        .expect("spawn forty-benchmark");
    assert!(
        out.status.success(),
        "{workload} trace={trace}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).unwrap_or_else(|_| panic!("result line is not JSON: {last}"))
}

#[test]
fn every_workload_emits_exactly_the_promised_metrics() {
    let spec = benchmark_json();
    let workloads = names(&spec, "workloads");
    assert_eq!(workloads.len(), 4);
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let promised = names(&spec, key);
        for w in &workloads {
            let result = run(w, trace);
            let keys: BTreeSet<&str> = result
                .as_object()
                .expect("object")
                .keys()
                .map(String::as_str)
                .collect();
            assert_eq!(
                keys,
                BTreeSet::from(["attempted", "correct", "failed", "metrics"])
            );
            assert_eq!(
                result.get("correct").and_then(Value::as_bool),
                Some(true),
                "{w}: {result:?}"
            );
            assert!(
                result
                    .get("attempted")
                    .and_then(Value::as_u64)
                    .expect("attempted")
                    >= 1
            );
            assert_eq!(
                result.get("failed").and_then(Value::as_u64),
                Some(0),
                "{w}: ops failed"
            );
            let metrics = result
                .get("metrics")
                .and_then(Value::as_object)
                .expect("metrics");
            let emitted: BTreeSet<String> = metrics.keys().cloned().collect();
            assert_eq!(emitted, promised, "{w} trace={trace}");
            for (name, m) in metrics {
                let v = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
                assert!(v.is_finite(), "{w}: {name} is not finite");
                assert!(
                    m.get("unit").and_then(Value::as_str).is_some(),
                    "{w}: {name} has no unit"
                );
                if trace == "0" {
                    assert!(v > 0.0, "{w}: end-to-end metric {name} must never be 0");
                }
            }
        }
    }
}

#[test]
fn unknown_workload_is_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_forty-benchmark"))
        .args(["run", "--workload", "no-such-workload"])
        .output()
        .expect("spawn forty-benchmark");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "no result line for a refused run");
}
