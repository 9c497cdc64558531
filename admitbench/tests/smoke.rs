//! A short run of every workload, untraced and traced: each must pass its
//! correctness check and emit exactly the metrics `BENCHMARK.json` lists,
//! with the units it lists.

use admitbench::json::{self, Value};
use std::path::Path;
use std::process::Command;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("the package sits inside the repository")
}

fn declared(spec: &Value, section: &str) -> Vec<(String, String)> {
    spec.get(section)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section} list"))
        .iter()
        .map(|m| {
            let field =
                |k| m.get(k).and_then(Value::as_str).unwrap_or_else(|| panic!("{section} entry without {k}"));
            (field("name").to_owned(), field("unit").to_owned())
        })
        .collect()
}

fn run(workload: &str, trace: &str) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_admitbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace])
        .current_dir(repo_root())
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    json::parse(last).unwrap_or_else(|e| panic!("result line is not JSON ({e}): {last}"))
}

#[test]
fn every_workload_emits_the_declared_metrics_and_passes_its_check() {
    let text =
        std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json at the repo root");
    let spec = json::parse(&text).expect("BENCHMARK.json parses");
    let workloads: Vec<String> = spec
        .get("workloads")
        .and_then(Value::as_array)
        .expect("a workloads list")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("a workload name").to_owned())
        .collect();
    assert_eq!(workloads, ["solve_churn", "wire_zipf", "gateway_fresh"]);
    for workload in &workloads {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let result = run(workload, trace);
            assert_eq!(
                result.get("correct"),
                Some(&Value::Bool(true)),
                "{workload} --trace {trace}: {result}"
            );
            assert!(result.get("attempted").and_then(Value::as_f64).is_some_and(|n| n >= 1.0), "{result}");
            assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0), "{result}");
            let Some(Value::Obj(metrics)) = result.get("metrics") else {
                panic!("no metrics object: {result}")
            };
            let emitted: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    assert!(m.get("value").and_then(Value::as_f64).is_some(), "{name} has no numeric value");
                    (name.clone(), m.get("unit").and_then(Value::as_str).unwrap_or_default().to_owned())
                })
                .collect();
            assert_eq!(emitted, declared(&spec, section), "{workload} --trace {trace}");
        }
    }
}
