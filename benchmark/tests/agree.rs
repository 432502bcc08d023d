//! `agree`: direction-aware bounds, medians of several runs, and the
//! absolute bound of 0 on `error_rate`.

use spq_bench::matrix::json::Json;
use spq_benchmark::agree::{bounds_of, compare, worsening, Side};

fn parse(text: &str) -> Result<Json, String> {
    Json::parse(text)
}

const BENCHMARK: &str = r#"{"end_to_end": [
  {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
  {"name": "throughput_qps", "unit": "1/s", "better": "higher", "bound": 0.1}]}"#;

fn side(runs: &[(f64, f64)]) -> Side {
    let mut side = Side::default();
    for &(latency, qps) in runs {
        side.add(&parse(&results(latency, qps)).unwrap()).unwrap();
    }
    side
}

fn results(latency: f64, qps: f64) -> String {
    format!(
        r#"{{"schema": 1, "workloads": [{{"name": "serve-local", "valid": true, "metrics": {{
            "latency_p50_ms": {{"value": {latency}, "unit": "ms"}},
            "throughput_qps": {{"value": {qps}, "unit": "1/s"}},
            "engine.query_ms_p50": {{"value": 9.5, "unit": "ms", "samples": 300}}}}}}]}}"#
    )
}

#[test]
fn worsening_respects_direction() {
    assert!((worsening(10.0, 11.0, false) - 0.1).abs() < 1e-12);
    assert!((worsening(10.0, 11.0, true) + 0.1).abs() < 1e-12);
    assert!((worsening(100.0, 80.0, true) - 0.2).abs() < 1e-12);
}

#[test]
fn within_bounds_agrees_and_out_of_bound_does_not() {
    let bounds = bounds_of(&parse(BENCHMARK).unwrap()).unwrap();
    let a = side(&[(10.0, 100.0)]);
    let (table, ok) = compare(&a, &side(&[(10.9, 91.0)]), &bounds).unwrap();
    assert!(ok, "{table}");
    assert!(
        table.contains("engine.query_ms_p50"),
        "per-layer rows are listed"
    );

    let slow = side(&[(11.5, 100.0)]);
    let (table, ok) = compare(&a, &slow, &bounds).unwrap();
    assert!(!ok && table.contains("OUT OF BOUND"), "{table}");
    // Better than A is never out of bound.
    assert!(compare(&slow, &a, &bounds).unwrap().1);
    assert!(!compare(&a, &side(&[(10.0, 85.0)]), &bounds).unwrap().1);
}

#[test]
fn a_side_of_several_runs_is_judged_by_its_median() {
    let bounds = bounds_of(&parse(BENCHMARK).unwrap()).unwrap();
    let a = side(&[(10.0, 100.0), (10.2, 99.0), (9.9, 101.0)]);
    // One slow run out of three does not move the median out of bound.
    let b = side(&[(10.1, 100.0), (14.0, 70.0), (10.3, 98.0)]);
    let (table, ok) = compare(&a, &b, &bounds).unwrap();
    assert!(ok, "{table}");
    assert!(table.contains("(3)"), "{table}");
}

#[test]
fn sides_without_common_metrics_and_invalid_runs_are_errors() {
    let bounds = bounds_of(&parse(BENCHMARK).unwrap()).unwrap();
    let a = side(&[(10.0, 100.0)]);
    assert!(compare(&a, &Side::default(), &bounds).is_err());
    let invalid =
        parse(r#"{"workloads": [{"name": "serve-open", "valid": false, "metrics": {}}]}"#);
    assert!(Side::default().add(&invalid.unwrap()).is_err());
}

#[test]
fn error_rate_is_held_to_zero_absolute() {
    let bounds = bounds_of(&parse(BENCHMARK).unwrap()).unwrap();
    let run = |error_rate: f64| {
        let text = results(10.0, 100.0).replace(
            r#""valid": true,"#,
            &format!(r#""valid": true, "error_rate": {error_rate},"#),
        );
        let mut side = Side::default();
        side.add(&parse(&text).unwrap()).unwrap();
        side
    };
    let (table, ok) = compare(&run(0.0), &run(0.0), &bounds).unwrap();
    assert!(
        ok && table.contains("serve-local error_rate 0(1) 0(1)"),
        "{table}"
    );
    // One wrong answer in a thousand is out of bound, whatever the times say.
    let (table, ok) = compare(&run(0.0), &run(0.001), &bounds).unwrap();
    assert!(!ok && table.contains("0abs OUT OF BOUND"), "{table}");
    // Fewer errors than A is not a regression.
    assert!(compare(&run(0.001), &run(0.0), &bounds).unwrap().1);
}
