//! The benchmark's own check, at a tiny scale factor and a fraction of a
//! second per workload: every declared metric is emitted with a finite
//! value, HEAD answers correctly, the oracle catches a corrupted result,
//! and `BENCHMARK.json` declares exactly the metrics the code emits.
//!
//! `cargo test --release --manifest-path perfbench/Cargo.toml`

use std::time::Duration;

use super::*;

fn tiny_run(workload: &str, trace: bool, corrupt: bool) -> Outcome {
    let args = Args {
        workload: workload.to_string(),
        seed: TUNING_SEED,
        seconds: Duration::from_millis(300),
        trace,
    };
    let scale = Scale {
        corrupt,
        ..Scale::tiny()
    };
    run_workload(&args, &scale).unwrap_or_else(|e| panic!("{workload} trace={trace}: {e}"))
}

#[test]
fn every_metric_is_emitted_finite_and_correct() {
    for workload in WORKLOADS {
        for trace in [false, true] {
            let out = tiny_run(workload, trace, false);
            assert!(out.attempted > 0, "{workload}: nothing attempted");
            assert_eq!(out.failed, 0, "{workload} trace={trace}: wrong results");
            let metrics = result_metrics(&out, trace)
                .unwrap_or_else(|e| panic!("{workload} trace={trace}: {e}"));
            let catalogue = if trace { PER_LAYER } else { END_TO_END };
            let names: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
            let declared: Vec<&str> = catalogue.iter().map(|(n, _)| *n).collect();
            assert_eq!(names, declared);
            assert!(metrics.iter().all(|m| m.value.is_finite()));
            if trace {
                // Every workload measures every kernel and the index.
                for name in ["temporal.tdwithin_ns", "rtree.search_ns", "sql.parse_us"] {
                    assert!(out.per_layer[name] > 0.0, "{workload}: {name} not measured");
                }
            } else {
                assert!(
                    metrics.iter().all(|m| m.value > 0.0),
                    "{workload}: {metrics:?}"
                );
            }
            let line = result_line(&out, &metrics);
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
        }
    }
}

#[test]
fn oracle_catches_a_corrupted_result() {
    for workload in WORKLOADS {
        let out = tiny_run(workload, false, true);
        assert!(
            out.failed >= 1,
            "{workload}: corrupted result went unnoticed"
        );
        let metrics = result_metrics(&out, false).expect("metrics");
        assert!(result_line(&out, &metrics).starts_with("{\"correct\": false"));
    }
}

/// The `"name"` values of one top-level array of `BENCHMARK.json`.
fn declared_names(json: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("no {key}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array end")];
    body.split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("name value").to_string())
        .collect()
}

#[test]
fn benchmark_json_declares_the_emitted_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let names = |c: &[(&str, &str)]| c.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
    assert_eq!(declared_names(&json, "end_to_end"), names(END_TO_END));
    assert_eq!(declared_names(&json, "per_layer"), names(PER_LAYER));
    let workloads: Vec<String> = WORKLOADS.iter().map(|w| w.to_string()).collect();
    assert_eq!(declared_names(&json, "workloads"), workloads);
}

#[test]
fn arguments_are_checked() {
    let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    let a = parse_args(&argv(
        "--workload point_serving --seed 9 --seconds 2 --trace 1",
    ))
    .expect("valid arguments");
    assert_eq!(
        (a.seed, a.seconds, a.trace),
        (9, Duration::from_secs(2), true)
    );
    assert!(parse_args(&argv("--workload x --trace 2")).is_err());
    assert!(parse_args(&argv("--seed 1")).is_err());
    assert!(parse_args(&argv("--workload x --seconds 0")).is_err());
}
