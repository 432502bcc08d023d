//! Integration tests of the benchmark matrix: the versioned record
//! format (golden file + schema fingerprint + round-trip proptest), a
//! tiny end-to-end matrix run, and the `spq-bench compare` gate driven
//! through the real binary.

use criterion::stats::{Estimate, Outliers};
use proptest::prelude::*;
use spq_bench::matrix::record::{schema_fingerprint, synthetic_fixture, ReportConfig};
use spq_bench::matrix::{
    run_matrix, Counters, JobCounters, MatrixConfig, MatrixRecord, MatrixReport, ServeCounters,
    SCHEMA_VERSION,
};
use std::path::{Path, PathBuf};
use std::process::Command;

fn fixture_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join("bench_matrix_golden.json")
}

/// The serialized shape is frozen: a fixed synthetic report must match
/// the committed fixture byte for byte. Regenerate deliberately with
/// `SPQ_BLESS=1 cargo test -p spq-bench --test matrix` — and bump
/// [`SCHEMA_VERSION`] if the shape (not just values) changed.
#[test]
fn golden_file_matches_the_committed_fixture() {
    let rendered = synthetic_fixture().to_json();
    let path = fixture_path();
    if std::env::var_os("SPQ_BLESS").is_some() {
        std::fs::write(&path, &rendered).expect("bless fixture");
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "read {}: {e}; run with SPQ_BLESS=1 to create",
            path.display()
        )
    });
    assert_eq!(
        rendered, committed,
        "BENCH_MATRIX.json shape or formatting changed: bump SCHEMA_VERSION if fields \
         changed, then regenerate with SPQ_BLESS=1"
    );
}

/// The schema fingerprint (sorted key paths of a serialized document) is
/// pinned to the current [`SCHEMA_VERSION`]. If this assertion fails you
/// changed the record shape: bump the version, update this constant, and
/// regenerate the golden fixture.
#[test]
fn schema_fingerprint_is_pinned_to_the_version() {
    assert_eq!(SCHEMA_VERSION, 6, "update the fingerprint below on bump");
    assert_eq!(
        schema_fingerprint(),
        "bench;\
         config.filter;config.queries;config.scale;config.seed;config.workers;\
         records[].counters.kernel_candidates;records[].counters.kernel_distance_checks;\
         records[].counters.kernel_visited;\
         records[].counters.keyword_terms_matched;records[].counters.keyword_terms_probed;\
         records[].counters.map_duplicates;records[].counters.map_input_records;\
         records[].counters.reduce_features_examined;records[].counters.results;\
         records[].counters.retries;records[].counters.shards_touched;\
         records[].counters.shuffle_bytes;records[].counters.shuffle_records;\
         records[].id;\
         records[].identical_to_reference;\
         records[].mean_ms.hi;records[].mean_ms.lo;records[].mean_ms.point;\
         records[].objects;\
         records[].outliers.mild_high;records[].outliers.mild_low;\
         records[].outliers.severe_high;records[].outliers.severe_low;\
         records[].p50_ms.hi;records[].p50_ms.lo;records[].p50_ms.point;\
         records[].p99_ms.hi;records[].p99_ms.lo;records[].p99_ms.point;\
         records[].qps;records[].samples;\
         schema_version"
            .replace(";\n", ";")
            .replace(' ', ""),
        "record shape changed without a SCHEMA_VERSION bump"
    );
}

fn arb_estimate() -> impl Strategy<Value = Estimate> {
    (0.0f64..1e6, 0.0f64..1.0, 0.0f64..1.0).prop_map(|(point, dlo, dhi)| Estimate {
        point,
        lo: point * (1.0 - dlo * 0.5),
        hi: point * (1.0 + dhi * 0.5),
    })
}

/// Draws a row of either table: a job row when `axes.3` is 0, a serving
/// row otherwise.
fn arb_record() -> impl Strategy<Value = MatrixRecord> {
    (
        (0usize..4, 0usize..3, 0usize..4, 0usize..2),
        (1usize..1_000_000, 1usize..2_000, 0.0f64..1e6),
        arb_estimate(),
        arb_estimate(),
        arb_estimate(),
        (0usize..5, 0usize..5, 0usize..5, 0usize..5),
        (0u64..1 << 40, 0u64..1 << 40, 0u64..1_000),
    )
        .prop_map(|(axes, counts, mean_ms, p50_ms, p99_ms, outl, work)| {
            let corpora = ["uniform-120k", "clustered-60k", "flickr-40k", "tiny"];
            let algos = ["pSPQ", "eSPQlen", "eSPQsco"];
            let backends = ["local", "sharded:4", "remote:2", "sharded:16"];
            let (c, a, b, table) = axes;
            let (objects, samples, qps) = counts;
            let (id, counters) = if table == 0 {
                let counters = Counters::Job(JobCounters {
                    map_input_records: work.0 / 2,
                    map_duplicates: work.0 / 7,
                    reduce_features_examined: work.1 / 5,
                });
                (format!("job/{}/{}", corpora[c], algos[a]), counters)
            } else {
                let counters = Counters::Serve(ServeCounters {
                    shards_touched: work.2,
                    shuffle_records: work.0,
                    shuffle_bytes: work.1,
                    keyword_terms_probed: work.2 * 3,
                    keyword_terms_matched: work.2 * 2,
                    retries: work.2 % 3,
                    results: work.2 * 10,
                    kernel_candidates: work.0 / 3,
                    kernel_visited: work.2 * 4,
                    kernel_distance_checks: work.1 / 9,
                });
                let id = format!("serve/{}/{}", corpora[c], backends[b]);
                (id, counters)
            };
            MatrixRecord {
                id,
                objects,
                samples,
                qps,
                identical_to_reference: true,
                counters,
                mean_ms,
                p50_ms,
                p99_ms,
                outliers: Outliers {
                    severe_low: outl.0,
                    mild_low: outl.1,
                    mild_high: outl.2,
                    severe_high: outl.3,
                },
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Serde-style round trip: `from_json(to_json(report))` reproduces
    /// every field exactly (floats use shortest round-trip formatting).
    #[test]
    fn prop_report_round_trips_exactly(
        records in proptest::collection::vec(arb_record(), 0..6),
        seed in 0u64..10_000,
        scale in 0.001f64..10.0,
    ) {
        let report = MatrixReport {
            schema_version: SCHEMA_VERSION,
            config: ReportConfig {
                seed,
                scale,
                queries: 16,
                workers: 4,
                filter: if seed % 2 == 0 { None } else { Some("*remote:*".to_owned()) },
            },
            records,
        };
        let parsed = MatrixReport::from_json(&report.to_json()).unwrap();
        prop_assert_eq!(parsed, report);
    }
}

/// A tiny end-to-end run: 1k-object floor, one corpus via filter, two
/// in-process backends. Exercises the full runner path including the
/// byte-identity asserts and the serving rows' concurrent and admission
/// runs, which must agree with them.
#[test]
fn tiny_matrix_run_produces_consistent_records() {
    use spq_core::Backend;
    let cfg = MatrixConfig {
        backends: vec![Backend::Local, Backend::Sharded { shards: 2 }],
        filter: Some("*/uniform-120k/*".to_owned()),
        scale: 1e-9, // clamps to the 1k-object floor
        queries: 6,
        workers: 2,
        ..MatrixConfig::default()
    };
    let report = run_matrix(&cfg);
    let ids: Vec<&str> = report.records.iter().map(|r| r.id.as_str()).collect();
    // 3 algorithms' jobs, then 2 backends, uniform corpus only.
    assert_eq!(
        ids,
        [
            "job/uniform-120k/pSPQ",
            "job/uniform-120k/eSPQlen",
            "job/uniform-120k/eSPQsco",
            "serve/uniform-120k/local",
            "serve/uniform-120k/sharded:2",
        ]
    );
    assert_eq!(report.schema_version, SCHEMA_VERSION);
    assert_eq!(report.config.filter.as_deref(), Some("*/uniform-120k/*"));
    for r in &report.records {
        assert_eq!(r.objects, 1_000);
        assert_eq!(r.samples, 6);
        assert!(r.identical_to_reference);
        assert!(r.qps > 0.0, "{}", r.id);
        for e in [&r.mean_ms, &r.p50_ms, &r.p99_ms] {
            assert!(e.lo <= e.point && e.point <= e.hi, "{}: {:?}", r.id, e);
        }
        match r.counters {
            // Every job maps at least the data objects.
            Counters::Job(c) => assert!(c.map_input_records > 0, "{}", r.id),
            Counters::Serve(c) => {
                // Every query probes its keywords; in-process backends
                // never retry.
                assert!(c.keyword_terms_probed >= 6, "{}", r.id);
                assert_eq!(c.retries, 0, "{}", r.id);
            }
        }
    }
    // The document the runner writes parses back to itself.
    let parsed = MatrixReport::from_json(&report.to_json()).unwrap();
    assert_eq!(parsed, report);

    // The gated block is a function of the run configuration alone: a
    // second run at another worker count reproduces it exactly.
    let again = run_matrix(&MatrixConfig { workers: 1, ..cfg });
    let cmp = spq_bench::matrix::compare_reports(&report, &again).unwrap();
    assert_eq!(cmp.compared, 5);
    assert_eq!(cmp.failures(), 0, "{}", cmp.render());
}

// ---- the compare gate, driven through the real binary ----------------

fn write_report(dir: &Path, name: &str, report: &MatrixReport) -> PathBuf {
    let path = dir.join(name);
    std::fs::write(&path, report.to_json()).expect("write report");
    path
}

fn run_compare(args: &[&str]) -> (i32, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_spq-bench"))
        .arg("compare")
        .args(args)
        .output()
        .expect("run spq-bench compare");
    (
        output.status.code().expect("exit code"),
        String::from_utf8_lossy(&output.stdout).into_owned(),
    )
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spq-matrix-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// Writes `base` and `cand` into a fresh directory and runs the gate
/// over them.
fn compare_pair(tag: &str, base: &MatrixReport, cand: &MatrixReport) -> (i32, String) {
    let dir = temp_dir(tag);
    let b = write_report(&dir, "base.json", base);
    let c = write_report(&dir, "cand.json", cand);
    let outcome = run_compare(&[b.to_str().unwrap(), c.to_str().unwrap()]);
    std::fs::remove_dir_all(&dir).ok();
    outcome
}

/// One counter off by one in one row of either table fails the gate
/// with exactly one `MISMATCH` line, naming the row and the counter.
#[test]
fn compare_fails_on_one_counter_off_by_one_naming_id_and_counter() {
    let base = synthetic_fixture();
    let (job, serve) = (0, 2);
    assert!(base.records[job].id.starts_with("job/"));
    assert!(base.records[serve].id.starts_with("serve/"));

    let mut cand = base.clone();
    let Counters::Job(c) = &mut cand.records[job].counters else {
        panic!("a job row")
    };
    c.reduce_features_examined += 1;
    let (code, stdout) = compare_pair("job-counter", &base, &cand);
    assert_eq!(code, 1, "{stdout}");
    let expected = format!(
        "MISMATCH {} reduce_features_examined: baseline 2400, candidate 2401\n",
        base.records[job].id
    );
    assert_eq!(stdout.matches("MISMATCH").count(), 1, "{stdout}");
    assert!(stdout.contains(&expected), "{stdout}");
    assert!(stdout.contains("1 differing counters"), "{stdout}");

    let mut cand = base.clone();
    let Counters::Serve(c) = &mut cand.records[serve].counters else {
        panic!("a serving row")
    };
    c.kernel_visited += 1;
    let (code, stdout) = compare_pair("serve-counter", &base, &cand);
    assert_eq!(code, 1, "{stdout}");
    let expected = format!(
        "MISMATCH {} kernel_visited: baseline 480, candidate 481\n",
        base.records[serve].id
    );
    assert_eq!(stdout.matches("MISMATCH").count(), 1, "{stdout}");
    assert!(stdout.contains(&expected), "{stdout}");
    assert!(stdout.contains("1 differing counters"), "{stdout}");
}

#[test]
fn compare_ignores_tripled_timings_when_counters_are_equal() {
    let base = synthetic_fixture();
    let mut slow = base.clone();
    for r in &mut slow.records {
        r.qps /= 3.0;
        for e in [&mut r.mean_ms, &mut r.p50_ms, &mut r.p99_ms] {
            e.point *= 3.0;
            e.lo *= 3.0;
            e.hi *= 3.0;
        }
    }
    let (code, stdout) = compare_pair("timings", &base, &slow);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("0 differing counters"), "{stdout}");
}

#[test]
fn compare_reports_disjoint_id_sets_as_added_and_removed() {
    // A baseline row the candidate lost fails the gate, whichever table
    // it was in and whatever else the candidate gained.
    let base = synthetic_fixture();
    for (tag, drop) in [("disjoint-job", 0), ("disjoint-serve", 2)] {
        let mut cand = base.clone();
        let dropped = cand.records.remove(drop).id;
        let mut extra = cand.records[drop].clone();
        extra.id = extra.id.replace("uniform-120k", "clustered-60k");
        cand.records.push(extra.clone());
        let (code, stdout) = compare_pair(tag, &base, &cand);
        assert_eq!(code, 1, "{stdout}");
        assert!(stdout.contains(&format!("REMOVED  {dropped}")), "{stdout}");
        assert!(
            stdout.contains(&format!("ADDED    {}", extra.id)),
            "{stdout}"
        );
        assert!(stdout.contains("1 removed, 1 added"), "{stdout}");
    }
}

#[test]
fn compare_lists_an_added_id_and_passes() {
    let base = synthetic_fixture();
    let mut grown = base.clone();
    let mut extra = base.records[4].clone();
    extra.id = "serve/clustered-60k/remote:2".to_owned();
    grown.records.push(extra.clone());
    let (code, stdout) = compare_pair("added", &base, &grown);
    assert_eq!(code, 0, "{stdout}");
    assert!(
        stdout.contains(&format!("ADDED    {}", extra.id)),
        "{stdout}"
    );
    assert!(stdout.contains("0 removed, 1 added"), "{stdout}");
}

#[test]
fn compare_exits_2_on_documents_that_are_not_like_for_like() {
    let base = synthetic_fixture();
    let mut other_scale = base.clone();
    other_scale.config.scale = 0.5;
    let (code, stdout) = compare_pair("scale", &base, &other_scale);
    assert_eq!(code, 2, "{stdout}");
    let mut other_queries = base.clone();
    other_queries.config.queries = 24;
    assert_eq!(compare_pair("queries", &base, &other_queries).0, 2);
    // The worker count is not part of the contract.
    let mut other_workers = base.clone();
    other_workers.config.workers = 1;
    assert_eq!(compare_pair("workers", &base, &other_workers).0, 0);
}

#[test]
fn compare_exits_2_on_unreadable_documents() {
    let dir = temp_dir("unreadable");
    let good = write_report(&dir, "good.json", &synthetic_fixture());
    let bad = dir.join("bad.json");
    std::fs::write(&bad, "{ not json").expect("write");
    let (code, _) = run_compare(&[good.to_str().unwrap(), bad.to_str().unwrap()]);
    assert_eq!(code, 2);
    let (code, _) = run_compare(&[
        dir.join("missing.json").to_str().unwrap(),
        good.to_str().unwrap(),
    ]);
    assert_eq!(code, 2);
    std::fs::remove_dir_all(&dir).ok();
}
