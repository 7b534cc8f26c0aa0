//! Tests of the benchmark itself: the `--smoke` scale run in-process,
//! held against `BENCHMARK.json`.

use crate::golden::Golden;
use crate::metrics::{end_to_end_units, Metric, END_TO_END, EXACT_COUNTS, PER_LAYER};
use crate::spans::Recorder;
use crate::workloads::{Scale, ALL};
use crate::{
    parse_args, parse_outcome, run_traced, run_untraced, Config, Outcome, DEFAULT_SECONDS,
};
use vdm_obs::util::Json;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the root")).unwrap()
}

fn names(list: &Json) -> Vec<String> {
    list.as_array()
        .expect("a list")
        .iter()
        .map(|entry| entry.get("name").and_then(Json::as_str).expect("a name").to_string())
        .collect()
}

fn value(metrics: &[Metric], name: &str) -> f64 {
    metrics.iter().find(|m| m.name == name).unwrap_or_else(|| panic!("no {name}")).value
}

/// Parent links form a tree per trace, children lie inside their parents,
/// and self times sum to the root.
fn assert_span_trees(rec: &Recorder) {
    let spans = rec.spans();
    assert!(!spans.is_empty());
    let mut self_sum = 0u64;
    let mut root_sum = 0u64;
    for (i, span) in spans.iter().enumerate() {
        match span.parent_id {
            None => root_sum += span.duration_ns(),
            Some(parent) => {
                let p = spans[..i]
                    .iter()
                    .find(|s| s.span_id == parent)
                    .expect("a parent starts before its child");
                assert_eq!(p.trace_id, span.trace_id, "a child shares its parent's trace");
                assert!(p.start_ns <= span.start_ns && span.end_ns <= p.end_ns);
            }
        }
        self_sum += rec.self_ns(i);
    }
    let traces: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.trace_id).collect();
    let roots = spans.iter().filter(|s| s.parent_id.is_none()).count();
    assert_eq!(roots, traces.len(), "one root per trace");
    let off = (self_sum as f64 - root_sum as f64).abs() / root_sum as f64;
    assert!(off <= 0.01, "self times sum to {self_sum}, roots to {root_sum}");
}

/// One test, not four: the runs share the process-wide query store and
/// metrics registry, so they must not run on parallel test threads.
#[test]
fn smoke_runs_match_the_contract_and_repeat() {
    let contract = benchmark_json();
    let golden = Golden::default();
    for workload in ALL {
        let cfg = Config { workload, seed: 7, scale: Scale { rounds: 1, ..Scale::smoke() } };
        let mut traced: Vec<Outcome> = Vec::new();
        for _ in 0..2 {
            let (outcome, _) = run_untraced(&cfg, 1, &golden).unwrap();
            assert_eq!(outcome.failed, 0, "{}: a check failed", workload.name());
            let printed: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
            assert_eq!(printed, names(contract.get("end_to_end").unwrap()));
            assert!(
                outcome.metrics.iter().all(|m| m.value > 0.0),
                "end-to-end metrics are never 0"
            );
            assert_eq!(parse_outcome(&outcome.to_json()).unwrap(), outcome);

            let (outcome, _, rec) = run_traced(&cfg).unwrap();
            assert_eq!(outcome.failed, 0, "{}: a traced check failed", workload.name());
            let printed: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
            assert_eq!(printed, names(contract.get("per_layer").unwrap()));
            assert_span_trees(&rec);
            traced.push(outcome);
        }
        for name in EXACT_COUNTS {
            let (a, b) = (value(&traced[0].metrics, name), value(&traced[1].metrics, name));
            assert_eq!(a, b, "{}: count metric {name} must repeat exactly", workload.name());
        }
        let m = &traced[0].metrics;
        let writes = ["storage.insert_us_per_row", "storage.delete_ms", "cache.refresh_ms"];
        match workload.name() {
            "htap_mixed" => {
                assert!(value(m, "cache.group_recomputes") >= 1.0);
                assert!(value(m, "cache.incremental_frac") > 0.5);
                assert!(writes.iter().all(|w| value(m, w) > 0.0));
            }
            other => {
                assert!(writes.iter().all(|w| value(m, w) == 0.0), "{other} writes nothing");
                let hit_rate = if other == "browser_cold_plan" { 0.0 } else { 1.0 };
                assert_eq!(value(m, "core.plan_cache_hit_rate"), hit_rate);
                let plans = value(m, "optimizer.rewrites_fired") > 0.0;
                assert_eq!(plans, other == "browser_cold_plan", "only cold plans optimize");
            }
        }
    }
}

#[test]
fn tables_equal_benchmark_json() {
    let contract = benchmark_json();
    let workloads: Vec<&str> = ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names(contract.get("workloads").unwrap()), workloads);
    assert_eq!(contract.get("run_seconds").and_then(Json::as_f64), Some(DEFAULT_SECONDS as f64));
    let listed = |key: &str, table: &[(&str, &str)]| {
        for (entry, (name, unit)) in
            contract.get(key).unwrap().as_array().unwrap().iter().zip(table)
        {
            assert_eq!(entry.get("name").and_then(Json::as_str), Some(*name));
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(*unit), "{name}");
        }
        assert_eq!(contract.get(key).unwrap().as_array().unwrap().len(), table.len());
    };
    listed("end_to_end", &end_to_end_units());
    listed("per_layer", &PER_LAYER);
    for (entry, gate) in
        contract.get("end_to_end").unwrap().as_array().unwrap().iter().zip(&END_TO_END)
    {
        let better = if gate.higher_is_better { "higher" } else { "lower" };
        assert_eq!(entry.get("better").and_then(Json::as_str), Some(better), "{}", gate.name);
        assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(gate.bound), "{}", gate.name);
    }
    assert!(EXACT_COUNTS.iter().all(|c| PER_LAYER.iter().any(|(n, _)| n == c)));
}

#[test]
fn arguments_follow_the_driver() {
    let args =
        |line: &str| parse_args(&line.split_whitespace().map(String::from).collect::<Vec<_>>());
    let driver = args("--workload htap_mixed --seed 9 --seconds 15 --trace 1").unwrap();
    assert!(driver.trace && driver.seed == Some(9) && driver.seconds == Some(15));
    assert!(!args("--workload olap_rollup --trace 0 --seed 1").unwrap().trace);
    assert!(args("--trace --smoke").unwrap().trace);
    assert!(args("--workload nope").is_err());
    assert!(args("--seconds 0").is_err());
    assert!(args("--seed").is_err());
}
