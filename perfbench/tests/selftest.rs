//! Self-test of the benchmark: a tiny-configuration run of every
//! workload declared in `BENCHMARK.json` passes its correctness checks
//! and emits exactly the declared metric names, each with its declared
//! unit — the end-to-end set untraced, the per-layer set traced.

use std::path::Path;
use std::process::Command;

use cellsim_core::json::{self, JsonValue};

fn benchmark_json() -> JsonValue {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(v: &JsonValue, key: &str) -> Vec<JsonValue> {
    v.get(key)
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .to_vec()
}

fn str_field<'a>(v: &'a JsonValue, key: &str) -> &'a str {
    v.get(key)
        .and_then(JsonValue::as_str)
        .unwrap_or_else(|| panic!("entry without a {key}"))
}

/// Runs one workload at tiny size and returns its result line.
fn run(workload: &str, trace: &str) -> JsonValue {
    let out = Command::new(env!("CARGO_BIN_EXE_cellsim-perfbench"))
        .args([
            "--workload",
            workload,
            "--seconds",
            "1",
            "--trace",
            trace,
            "--tiny",
        ])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout
        .lines()
        .last()
        .expect("the benchmark prints a result");
    json::parse(last).expect("the last line is JSON")
}

#[test]
fn every_workload_emits_exactly_the_declared_metrics() {
    let declared = benchmark_json();
    for workload in names(&declared, "workloads") {
        let workload = str_field(&workload, "name");
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let result = run(workload, trace);
            let object = result.as_object().expect("the result is an object");
            let keys: Vec<&str> = object.keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert!(matches!(result.get("correct"), Some(JsonValue::Bool(true))));
            assert_eq!(result.get("failed").and_then(JsonValue::as_u64), Some(0));
            assert!(result.get("attempted").and_then(JsonValue::as_u64) >= Some(1));

            let metrics = result
                .get("metrics")
                .and_then(JsonValue::as_object)
                .expect("metrics is an object");
            let mut want: Vec<(String, String)> = names(&declared, section)
                .iter()
                .map(|m| {
                    (
                        str_field(m, "name").to_string(),
                        str_field(m, "unit").to_string(),
                    )
                })
                .collect();
            let mut got: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, v)| {
                    assert!(
                        v.get("value").and_then(JsonValue::as_f64).is_some(),
                        "{workload}: {name} has no numeric value"
                    );
                    (name.clone(), str_field(v, "unit").to_string())
                })
                .collect();
            want.sort();
            got.sort();
            assert_eq!(got, want, "{workload} --trace {trace}");
        }
    }
}
