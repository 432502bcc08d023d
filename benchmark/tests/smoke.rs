//! Smoke run of all four workloads, untraced and traced, at 1k objects
//! × 1 s: every name in `BENCHMARK.json` is emitted exactly once per
//! workload, is finite, and is spelt `[A-Za-z0-9_.-]+`.

use spq_bench::matrix::json::Json;
use spq_benchmark::cli::run_workload;
use spq_benchmark::corpus::{CLUSTERED_OBJECTS, UNIFORM_OBJECTS};
use spq_benchmark::workloads::{RunConfig, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repo root")
        .to_owned()
}

/// The `spq-worker` of the commit under test, built with this test's
/// profile into this test's target directory (`SPQ_WORKER_BIN`
/// overrides).
fn worker_bin() -> PathBuf {
    if let Some(path) = std::env::var_os("SPQ_WORKER_BIN") {
        return path.into();
    }
    // <target>/<profile>/deps/smoke-<hash>
    let exe = std::env::current_exe().expect("test executable path");
    let profile_dir = exe.parent().and_then(Path::parent).expect("profile dir");
    let target_dir = profile_dir.parent().expect("target dir");
    let mut build = Command::new(env!("CARGO"));
    build
        .args([
            "build",
            "--offline",
            "--quiet",
            "-p",
            "spq",
            "--bin",
            "spq-worker",
        ])
        .arg("--manifest-path")
        .arg(repo_root().join("Cargo.toml"))
        .arg("--target-dir")
        .arg(target_dir);
    if profile_dir.file_name().is_some_and(|p| p == "release") {
        build.arg("--release");
    }
    assert!(
        build.status().expect("cargo runs").success(),
        "building spq-worker failed"
    );
    profile_dir.join("spq-worker")
}

/// 1k objects per corpus; nothing else differs from a real run.
fn smoke_config(
    seconds: f64,
    out: &str,
    worker_bin: PathBuf,
    corrupt_one_answer: bool,
) -> RunConfig {
    RunConfig {
        seed: 7,
        seconds,
        nproc: 2,
        uniform_objects: 1_000,
        clustered_objects: 1_000,
        worker_bin,
        out_dir: Path::new(env!("CARGO_TARGET_TMPDIR")).join(out),
        corrupt_one_answer,
    }
}

fn names(benchmark: &Json, list: &str) -> Vec<String> {
    benchmark
        .get(list)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_owned()
        })
        .collect()
}

#[test]
fn every_declared_metric_is_emitted_once_per_workload() {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let benchmark = Json::parse(&text).expect("BENCHMARK.json parses");

    // The declared workloads are the harness's, name and reason alike.
    let declared: Vec<(String, String)> = benchmark
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            let field = |k| w.get(k).and_then(Json::as_str).expect("string").to_owned();
            (field("name"), field("why"))
        })
        .collect();
    let ours: Vec<(String, String)> = WORKLOADS
        .iter()
        .map(|w| (w.name.to_owned(), w.why.to_owned()))
        .collect();
    assert_eq!(declared, ours);

    let cfg = smoke_config(1.0, "smoke-out", worker_bin(), false);
    assert!(UNIFORM_OBJECTS > cfg.uniform_objects && CLUSTERED_OBJECTS > cfg.clustered_objects);

    for spec in &WORKLOADS {
        for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
            let report = run_workload(spec, trace, &cfg)
                .unwrap_or_else(|e| panic!("{} trace={trace}: {e}", spec.name));
            assert!(
                report.correct(),
                "{} trace={trace}:\n{}",
                spec.name,
                report.table()
            );

            let mut emitted: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
            let mut wanted = names(&benchmark, list);
            for metric in &report.metrics {
                assert!(metric.value.is_finite(), "{} {}", spec.name, metric.name);
                assert!(
                    !metric.name.is_empty()
                        && metric
                            .name
                            .chars()
                            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                    "bad metric name {:?}",
                    metric.name
                );
            }
            // `error_rate` is printed by name in every run, bounded or not.
            let error_rate_line = format!("{} error_rate 0 ratio ", spec.name);
            let table = report.table();
            assert_eq!(
                table
                    .lines()
                    .filter(|l| l.starts_with(&error_rate_line))
                    .count(),
                1,
                "{table}"
            );
            emitted.sort_unstable();
            wanted.sort_unstable();
            assert_eq!(emitted, wanted, "{} trace={trace}", spec.name);

            // The driver's line: exactly four keys, units as declared.
            let line = Json::parse(&report.result_line()).expect("result line parses");
            let Json::Obj(members) = &line else {
                panic!("the result line is not an object");
            };
            let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            for m in benchmark.get(list).and_then(Json::as_array).expect("list") {
                let name = m.get("name").and_then(Json::as_str).expect("name");
                let unit = line
                    .get("metrics")
                    .and_then(|ms| ms.get(name))
                    .and_then(|v| v.get("unit"));
                assert_eq!(unit, m.get("unit"), "{name}");
            }
        }
    }
}

#[test]
fn a_corrupted_answer_fails_the_run() {
    let cfg = smoke_config(0.5, "smoke-corrupt", PathBuf::from("unused"), true);
    let report = run_workload(&WORKLOADS[0], false, &cfg).expect("serve-local runs");
    assert!(!report.correct());
    assert_eq!(report.counts.failed, 1);
    assert!(report.result_line().starts_with("{\"correct\": false"));
}

#[test]
fn a_missing_worker_binary_is_a_clear_error() {
    let err = spq_benchmark::workers::WorkerProcess::spawn(Path::new("/nonexistent/spq-worker"), 0)
        .expect_err("no such binary");
    assert!(
        err.contains("not found") && err.contains("spq-worker"),
        "{err}"
    );
}
