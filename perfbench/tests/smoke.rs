//! Smoke test of the benchmark command: every workload, in both modes,
//! at reduced size. Each run must exit 0, pass every correctness check,
//! and print every metric `BENCHMARK.json` names, with its unit.

use std::process::Command;

use serde::Deserialize;

#[derive(Debug, Deserialize)]
struct Benchmark {
    workloads: Vec<Named>,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
}

#[derive(Debug, Deserialize)]
struct Named {
    name: String,
}

#[derive(Debug, Deserialize)]
struct Metric {
    name: String,
    unit: String,
}

fn benchmark() -> Benchmark {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn run(workload: &str, trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "1", "--seconds", "1"])
        .args(["--trace", trace, "--smoke"])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("output is UTF-8");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn every_workload_prints_every_metric_and_passes_its_checks() {
    let bench = benchmark();
    assert_eq!(bench.workloads.len(), 3);
    for workload in &bench.workloads {
        for (trace, metrics) in [("0", &bench.end_to_end), ("1", &bench.per_layer)] {
            let line = run(&workload.name, trace);
            assert!(
                line.starts_with("{\"correct\": true, ") && line.contains("\"failed\": 0, "),
                "{}: {line}",
                workload.name
            );
            assert_eq!(
                line.matches("\"value\": ").count(),
                metrics.len(),
                "{} --trace {trace} prints metrics BENCHMARK.json does not name",
                workload.name
            );
            for m in metrics {
                let key = format!("\"{}\": {{\"value\": ", m.name);
                let at = line
                    .find(&key)
                    .unwrap_or_else(|| panic!("{}: no metric {}", workload.name, m.name));
                let rest = &line[at + key.len()..];
                let unit = format!(", \"unit\": \"{}\"}}", m.unit);
                let end = rest.find('}').expect("metric object closes") + 1;
                assert!(
                    rest[..end].ends_with(&unit),
                    "{}: metric {} lacks unit {}",
                    workload.name,
                    m.name,
                    m.unit
                );
            }
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        "--workload nope --seed 1 --seconds 1 --trace 0",
        "--workload storm --seed 1 --seconds 1",
        "--workload storm --seed x --seconds 1 --trace 0",
        "--workload storm --seed 1 --seconds 0 --trace 0",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(args.split(' '))
            .output()
            .expect("the benchmark binary runs");
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
