//! The backend-matrix bench behind `spq-bench --backend` and the
//! `BENCH_PR5.json` document.
//!
//! This bench compares execution *backends* through the typed facade: the
//! same query stream is served through [`SpqService`] built on each
//! requested [`Backend`] (`local`, `sharded:N`, `remote:N`), and every
//! response is asserted byte-identical to the plain single-store engine —
//! so the numbers compare pure backend overhead (scatter width, gather
//! wire traffic, per-shard planning, TCP framing on `remote:N`) on
//! provably equal answers. The `remote:N` rows additionally report frame
//! bytes per query and retries observed — the `BENCH_PR6.json` document
//! CI publishes from this bench.
//!
//! Three modes per backend (`measure_modes`, shared with the ingest
//! bench):
//!
//! | mode | facade call |
//! |---|---|
//! | `execute` | [`QueryExecutor::execute`] loop |
//! | `execute-batch` | [`QueryExecutor::execute_batch`] per chunk |
//! | `serve` | [`QueryExecutor::serve_requests`] (inter-query concurrency) |
//!
//! On top of the per-mode QPS, the report aggregates the per-query
//! [`spq_core::QueryStats`]: shards touched, gather wire bytes,
//! plan-cache hit rate.

use crate::params::{scaled, DEFAULT_GRID_SYNTH, DEFAULT_SIZE_UN};
use spq_core::{
    Backend, QueryEngine, QueryExecutor, QueryRequest, RankedObject, SpqExecutor, SpqService,
};
use spq_data::{
    Dataset, DatasetGenerator, IngestError, IngestOptions, QueryStream, StreamConfig, UniformGen,
};
use spq_mapreduce::ClusterConfig;
use spq_spatial::Rect;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Throughput and latency of one serving mode.
#[derive(Debug, Clone, Copy)]
pub struct ModeStats {
    /// Mode id (`execute`, `execute-batch`, `serve`; the ingest bench
    /// adds `job`).
    pub id: &'static str,
    /// Queries per second over the whole stream.
    pub qps: f64,
    /// Median per-query latency, milliseconds. For `execute-batch` the
    /// per-query latency is the batch wall amortized over its queries.
    pub p50_ms: f64,
    /// 99th-percentile per-query latency, milliseconds.
    pub p99_ms: f64,
    /// Total wall-clock of the stream, milliseconds.
    pub wall_ms: f64,
}

pub(crate) fn mode_stats(id: &'static str, latencies: Vec<Duration>, wall: Duration) -> ModeStats {
    // Percentiles come from the shared stats module (linear interpolation
    // at rank (n−1)·p), the single definition every bench uses.
    let sample = criterion::stats::Sample::new(
        latencies
            .iter()
            .map(|d| d.as_secs_f64() * 1e3)
            .collect::<Vec<_>>(),
    );
    ModeStats {
        id,
        qps: sample.len() as f64 / wall.as_secs_f64().max(1e-12),
        p50_ms: sample.percentile(0.50),
        p99_ms: sample.percentile(0.99),
        wall_ms: wall.as_secs_f64() * 1e3,
    }
}

/// Serves `requests` through the three facade modes of `service`
/// (`execute`, `execute-batch`, `serve`) and returns their stats plus the
/// aggregated per-query [`spq_core::QueryStats`] of the `execute` pass.
///
/// # Panics
///
/// Panics if any response differs from `reference` — the byte-identity
/// gate both callers exist for.
pub(crate) fn measure_modes(
    label: &str,
    service: &SpqService,
    requests: &[QueryRequest],
    reference: &[Vec<RankedObject>],
    batch: usize,
    workers: usize,
) -> (Vec<ModeStats>, StatsSummary) {
    // -- execute: sequential typed requests -------------------------------
    let mut latencies = Vec::with_capacity(requests.len());
    let mut shards_touched = 0u64;
    let mut shuffle_bytes = 0u64;
    let mut plan_hits = 0u64;
    let mut retries = 0u64;
    let frame_bytes_before = service.remote_traffic_bytes().unwrap_or(0);
    let wall = Instant::now();
    for (request, expect) in requests.iter().zip(reference) {
        let t0 = Instant::now();
        let response = service.execute(request).expect("execute");
        latencies.push(t0.elapsed());
        assert_eq!(&response.results, expect, "{label}: execute diverged");
        shards_touched += response.stats.shards_touched as u64;
        shuffle_bytes += response.stats.shuffle_bytes;
        plan_hits += response.stats.plan_cache_hit as u64;
        retries += response.stats.retries;
    }
    let execute = mode_stats("execute", latencies, wall.elapsed());
    let frame_bytes = service
        .remote_traffic_bytes()
        .unwrap_or(0)
        .saturating_sub(frame_bytes_before);
    let n = requests.len().max(1) as f64;
    let stats = StatsSummary {
        mean_shards_touched: shards_touched as f64 / n,
        mean_shuffle_bytes: shuffle_bytes as f64 / n,
        plan_cache_hit_rate: plan_hits as f64 / n,
        mean_frame_bytes: frame_bytes as f64 / n,
        mean_retries: retries as f64 / n,
    };

    // -- execute-batch: one facade call per chunk -------------------------
    let mut latencies = Vec::with_capacity(requests.len());
    let wall = Instant::now();
    for (chunk, expect) in requests
        .chunks(batch.max(1))
        .zip(reference.chunks(batch.max(1)))
    {
        let t0 = Instant::now();
        let responses = service.execute_batch(chunk).expect("batch");
        let amortized = t0.elapsed() / chunk.len() as u32;
        for (response, expect) in responses.iter().zip(expect) {
            assert_eq!(&response.results, expect, "{label}: batch diverged");
            latencies.push(amortized);
        }
    }
    let execute_batch = mode_stats("execute-batch", latencies, wall.elapsed());

    // -- serve: inter-query concurrency -----------------------------------
    let wall = Instant::now();
    let responses = service
        .serve_requests(requests, workers.max(1))
        .expect("serve");
    let serve_wall = wall.elapsed();
    let latencies = responses
        .iter()
        .zip(reference)
        .map(|(response, expect)| {
            assert_eq!(&response.results, expect, "{label}: serve diverged");
            Duration::from_micros(response.stats.wall_micros)
        })
        .collect();
    let serve = mode_stats("serve", latencies, serve_wall);

    (vec![execute, execute_batch, serve], stats)
}

/// Where the benched dataset comes from.
#[derive(Debug, Clone)]
pub enum BackendSource {
    /// Generate the fig7-uniform synthetic dataset at this scale.
    Generated {
        /// Multiplier on the harness default dataset size.
        scale: f64,
    },
    /// Ingest an external TSV dump (the CI path: a synthesized
    /// 120k-object Flickr-shaped dump).
    Loaded {
        /// Path of the data-object dump.
        data_tsv: PathBuf,
        /// Path of the feature-object dump.
        features_tsv: PathBuf,
    },
}

/// Configuration of one backend-matrix run.
#[derive(Debug, Clone)]
pub struct BackendBenchConfig {
    /// Backends to measure, in order.
    pub backends: Vec<Backend>,
    /// Dataset source.
    pub source: BackendSource,
    /// RNG seed for the dataset and the query stream.
    pub seed: u64,
    /// Worker threads (serve concurrency; scatter width on sharded).
    pub workers: usize,
    /// Length of the measured query stream.
    pub queries: usize,
    /// Batch size for `execute-batch`.
    pub batch: usize,
    /// Grid cells per axis.
    pub grid: u32,
    /// Fraction of the stream served from the hotspot pool.
    pub hotspot_fraction: f64,
    /// Number of hotspot queries in the pool.
    pub hotspots: usize,
}

impl Default for BackendBenchConfig {
    fn default() -> Self {
        Self {
            backends: vec![Backend::Local, Backend::Sharded { shards: 4 }],
            source: BackendSource::Generated { scale: 0.02 },
            seed: 2017,
            workers: ClusterConfig::auto().workers,
            queries: 24,
            batch: 8,
            grid: DEFAULT_GRID_SYNTH,
            hotspot_fraction: 0.5,
            hotspots: 8,
        }
    }
}

/// Aggregated per-query [`spq_core::QueryStats`] over one backend's
/// `execute` pass.
#[derive(Debug, Clone, Copy)]
pub struct StatsSummary {
    /// Mean shards touched per query.
    pub mean_shards_touched: f64,
    /// Mean boundary-crossing bytes per query (gather wire bytes on
    /// sharded, in-process shuffle bytes on local).
    pub mean_shuffle_bytes: f64,
    /// Fraction of queries whose partition plan came from cache.
    pub plan_cache_hit_rate: f64,
    /// Mean TCP frame bytes per query (requests plus responses, all
    /// workers); `0` on in-process backends.
    pub mean_frame_bytes: f64,
    /// Mean retry-state-machine re-asks per query; `0` unless a worker
    /// failed mid-run.
    pub mean_retries: f64,
}

/// One backend × algorithm measurement.
#[derive(Debug, Clone)]
pub struct BackendAlgoReport {
    /// The algorithm measured.
    pub algorithm: spq_core::Algorithm,
    /// Per-mode stats: `execute`, `execute-batch`, `serve` (the ingest
    /// bench puts its `job` pass first).
    pub modes: Vec<ModeStats>,
    /// Aggregated per-query stats from the `execute` pass.
    pub stats: StatsSummary,
}

/// One backend's full measurement.
#[derive(Debug, Clone)]
pub struct BackendSection {
    /// The backend measured.
    pub backend: Backend,
    /// Mean wall-clock of one `SpqService::build` (store slicing +
    /// per-shard index builds), milliseconds — averaged over the three
    /// per-algorithm builds the matrix performs.
    pub build_ms: f64,
    /// Per-algorithm measurements, in `Algorithm::ALL` order.
    pub algorithms: Vec<BackendAlgoReport>,
}

/// The full backend-matrix report.
#[derive(Debug, Clone)]
pub struct BackendReport {
    /// Workload id.
    pub id: &'static str,
    /// Total objects served.
    pub objects: usize,
    /// Per-backend sections, in configured order.
    pub backends: Vec<BackendSection>,
}

fn acquire_dataset(cfg: &BackendBenchConfig) -> Result<(Dataset, Rect, &'static str), IngestError> {
    match &cfg.source {
        BackendSource::Generated { scale } => {
            let size = scaled(DEFAULT_SIZE_UN, *scale);
            eprintln!("[backend-matrix] generating {size} objects");
            let dataset = UniformGen.generate(size, cfg.seed);
            Ok((dataset, Rect::unit(), "backend-matrix-uniform"))
        }
        BackendSource::Loaded {
            data_tsv,
            features_tsv,
        } => {
            eprintln!(
                "[backend-matrix] loading {} + {}",
                data_tsv.display(),
                features_tsv.display()
            );
            let loaded =
                spq_data::ingest::ingest_files(data_tsv, features_tsv, &IngestOptions::default())?;
            let bounds = loaded.dataset.bounds;
            Ok((loaded.dataset, bounds, "backend-matrix-tsv"))
        }
    }
}

fn stream_for(
    cfg: &BackendBenchConfig,
    dataset: &Dataset,
    bounds: Rect,
) -> Vec<spq_core::SpqQuery> {
    let cell = bounds.width().max(bounds.height()) / cfg.grid as f64;
    let vocab_size = dataset.vocab_size.max(1);
    let defaults = StreamConfig::default();
    let mut stream = QueryStream::new(
        vocab_size,
        StreamConfig {
            radius_classes: [5.0, 10.0, 25.0]
                .iter()
                .map(|pct| cell * pct / 100.0)
                .collect(),
            hotspot_fraction: cfg.hotspot_fraction,
            hotspots: cfg.hotspots,
            seed: cfg.seed ^ 13,
            keywords_per_query: defaults.keywords_per_query.min(vocab_size),
            ..defaults
        },
    );
    stream.batch(cfg.queries)
}

/// Runs the backend matrix: every configured backend serves the same
/// stream through the typed facade; every mode's results are asserted
/// byte-identical to the plain single-store engine.
///
/// # Panics
///
/// Panics if any backend/mode diverges from the single-store reference —
/// the CI gate this bench exists for.
pub fn run_backend_bench(cfg: &BackendBenchConfig) -> Result<BackendReport, IngestError> {
    assert!(!cfg.backends.is_empty(), "need at least one backend");
    let (dataset, bounds, id) = acquire_dataset(cfg)?;
    let queries = stream_for(cfg, &dataset, bounds);
    let requests: Vec<QueryRequest> = queries.iter().cloned().map(QueryRequest::new).collect();
    let (shared, _) = dataset.to_shared_splits(8);

    // The byte-identity reference — the plain single-store engine through
    // the typed API — depends only on the algorithm, so it is computed
    // once per algorithm and shared by every backend section.
    let prepared: Vec<(spq_core::Algorithm, SpqExecutor, Vec<Vec<RankedObject>>)> =
        spq_core::Algorithm::ALL
            .iter()
            .map(|&algorithm| {
                let exec = SpqExecutor::new(bounds)
                    .algorithm(algorithm)
                    .grid_size(cfg.grid)
                    .cluster(ClusterConfig::with_workers(cfg.workers));
                let reference_engine = QueryEngine::new(exec.clone(), shared.clone());
                let reference: Vec<Vec<RankedObject>> = requests
                    .iter()
                    .map(|r| reference_engine.execute(r).expect("reference job").results)
                    .collect();
                (algorithm, exec, reference)
            })
            .collect();

    let backends = cfg
        .backends
        .iter()
        .map(|&backend| {
            let mut build_ms_total = 0.0f64;
            let algorithms = prepared
                .iter()
                .map(|(algorithm, exec, reference)| {
                    let algorithm = *algorithm;
                    eprintln!(
                        "[{id}] {backend} / {algorithm}: {} requests x 3 modes",
                        requests.len()
                    );

                    let t0 = Instant::now();
                    let service = SpqService::build(exec.clone(), shared.clone(), backend)
                        .expect("service build");
                    build_ms_total += t0.elapsed().as_secs_f64() * 1e3;

                    let (modes, stats) = measure_modes(
                        &format!("{backend}/{algorithm}"),
                        &service,
                        &requests,
                        reference,
                        cfg.batch,
                        cfg.workers,
                    );

                    BackendAlgoReport {
                        algorithm,
                        modes,
                        stats,
                    }
                })
                .collect();
            BackendSection {
                backend,
                build_ms: build_ms_total / prepared.len().max(1) as f64,
                algorithms,
            }
        })
        .collect();

    Ok(BackendReport {
        id,
        objects: dataset.total(),
        backends,
    })
}

/// The entries of an `"algorithms": [...]` array (name, modes, stats) —
/// the shape shared by the backend and ingest documents.
pub(crate) fn json_algorithms(algorithms: &[BackendAlgoReport]) -> String {
    let entries: Vec<String> = algorithms
        .iter()
        .map(|a| {
            let modes: Vec<String> = a
                .modes
                .iter()
                .map(|m| {
                    format!(
                        "            {{ \"id\": \"{}\", \"qps\": {:.2}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"wall_ms\": {:.3} }}",
                        m.id, m.qps, m.p50_ms, m.p99_ms, m.wall_ms
                    )
                })
                .collect();
            format!(
                "        {{\n          \"name\": \"{}\",\n          \"modes\": [\n{}\n          ],\n          \"stats\": {{ \"mean_shards_touched\": {:.2}, \"mean_shuffle_bytes\": {:.1}, \"plan_cache_hit_rate\": {:.3}, \"mean_frame_bytes\": {:.1}, \"mean_retries\": {:.3} }}\n        }}",
                a.algorithm.name(),
                modes.join(",\n"),
                a.stats.mean_shards_touched,
                a.stats.mean_shuffle_bytes,
                a.stats.plan_cache_hit_rate,
                a.stats.mean_frame_bytes,
                a.stats.mean_retries,
            )
        })
        .collect();
    entries.join(",\n") + "\n"
}

/// Renders the report as the `BENCH_PR5.json` document.
pub fn backend_to_json(cfg: &BackendBenchConfig, report: &BackendReport) -> String {
    let source = match &cfg.source {
        BackendSource::Generated { scale } => format!("{{ \"generated_scale\": {scale} }}"),
        BackendSource::Loaded {
            data_tsv,
            features_tsv,
        } => format!(
            "{{ \"data_tsv\": {:?}, \"features_tsv\": {:?} }}",
            data_tsv.display().to_string(),
            features_tsv.display().to_string()
        ),
    };
    let mut out = String::from("{\n  \"bench\": \"spq-bench backends\",\n");
    out.push_str(&format!(
        "  \"config\": {{ \"source\": {source}, \"seed\": {}, \"workers\": {}, \"queries\": {}, \"batch\": {}, \"grid\": {} }},\n",
        cfg.seed, cfg.workers, cfg.queries, cfg.batch, cfg.grid
    ));
    // Reaching the report at all means every backend/mode matched the
    // single-store reference byte for byte.
    out.push_str("  \"identical_to_single_store\": true,\n");
    out.push_str(&format!(
        "  \"workload\": {{ \"id\": \"{}\", \"objects\": {} }},\n  \"backends\": [\n",
        report.id, report.objects
    ));
    for (bi, section) in report.backends.iter().enumerate() {
        out.push_str(&format!(
            "    {{\n      \"backend\": \"{}\",\n      \"build_ms\": {:.3},\n      \"algorithms\": [\n",
            section.backend, section.build_ms
        ));
        out.push_str(&json_algorithms(&section.algorithms));
        out.push_str(&format!(
            "      ]\n    }}{}\n",
            if bi + 1 < report.backends.len() {
                ","
            } else {
                ""
            }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_backend_matrix_measures_and_renders() {
        let cfg = BackendBenchConfig {
            backends: vec![
                Backend::Local,
                Backend::Sharded { shards: 2 },
                Backend::Sharded { shards: 5 },
                Backend::Remote { workers: 2 },
            ],
            source: BackendSource::Generated { scale: 1e-9 }, // 1k-object floor
            queries: 6,
            batch: 3,
            workers: 2,
            ..BackendBenchConfig::default()
        };
        // run_backend_bench asserts byte-identity of every backend and
        // mode against the single-store engine, so completing at all is
        // the correctness part.
        let report = run_backend_bench(&cfg).unwrap();
        assert_eq!(report.backends.len(), 4);
        for section in &report.backends {
            assert_eq!(section.algorithms.len(), 3);
            for a in &section.algorithms {
                assert_eq!(a.modes.len(), 3);
                for m in &a.modes {
                    assert!(m.qps > 0.0, "{}: {} qps", section.backend, m.id);
                }
                match section.backend {
                    Backend::Local => {
                        assert_eq!(a.stats.mean_shards_touched, 1.0);
                        assert_eq!(a.stats.mean_frame_bytes, 0.0);
                    }
                    Backend::Sharded { shards } => {
                        assert!(a.stats.mean_shards_touched <= shards as f64);
                        assert!(a.stats.mean_shards_touched >= 1.0);
                        assert_eq!(a.stats.mean_frame_bytes, 0.0);
                    }
                    Backend::Remote { workers } => {
                        assert!(a.stats.mean_shards_touched <= workers as f64);
                        // Every query crossed the wire in frames; nobody
                        // died, so no retries.
                        assert!(a.stats.mean_frame_bytes > 0.0);
                        assert_eq!(a.stats.mean_retries, 0.0);
                    }
                }
            }
        }
        let json = backend_to_json(&cfg, &report);
        assert!(json.contains("\"identical_to_single_store\": true"));
        assert!(json.contains("\"backend\": \"local\""));
        assert!(json.contains("\"backend\": \"sharded:2\""));
        assert!(json.contains("\"backend\": \"remote:2\""));
        assert!(json.contains("\"execute-batch\""));
        assert!(json.contains("\"mean_shards_touched\""));
        assert!(json.contains("\"mean_frame_bytes\""));
        assert!(json.contains("\"mean_retries\""));
    }

    #[test]
    fn loaded_source_benches_a_dump() {
        let dir = std::env::temp_dir();
        let d = dir.join(format!("spq-backend-bench-{}-d.tsv", std::process::id()));
        let f = dir.join(format!("spq-backend-bench-{}-f.tsv", std::process::id()));
        spq_data::ingest::synthesize_dump(
            &spq_data::ingest::DumpConfig {
                objects: 1000,
                seed: 5,
            },
            &d,
            &f,
        )
        .unwrap();
        let cfg = BackendBenchConfig {
            backends: vec![Backend::Sharded { shards: 3 }],
            source: BackendSource::Loaded {
                data_tsv: d.clone(),
                features_tsv: f.clone(),
            },
            queries: 4,
            batch: 2,
            workers: 1,
            ..BackendBenchConfig::default()
        };
        let report = run_backend_bench(&cfg).unwrap();
        assert_eq!(report.id, "backend-matrix-tsv");
        assert_eq!(report.objects, 1000);
        let json = backend_to_json(&cfg, &report);
        assert!(json.contains("\"data_tsv\""));
        for p in [&d, &f] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn percentiles_on_sorted_latencies() {
        let ms = |v: u64| Duration::from_millis(v);
        let stats = mode_stats("execute", vec![ms(4), ms(1), ms(2), ms(3)], ms(10));
        assert_eq!(stats.p50_ms, 2.5); // true midpoint of {1,2,3,4}
        assert!((stats.p99_ms - 3.97).abs() < 1e-9); // rank 2.97 between 3 and 4
        assert!((stats.qps - 400.0).abs() < 1e-9);
        // Odd-length sample: exact middle element.
        let stats = mode_stats("execute", vec![ms(3), ms(1), ms(2)], ms(10));
        assert_eq!(stats.p50_ms, 2.0);
    }

    #[test]
    fn missing_dump_is_an_error() {
        let cfg = BackendBenchConfig {
            source: BackendSource::Loaded {
                data_tsv: PathBuf::from("/nonexistent/spq-d.tsv"),
                features_tsv: PathBuf::from("/nonexistent/spq-f.tsv"),
            },
            ..BackendBenchConfig::default()
        };
        assert!(run_backend_bench(&cfg).is_err());
    }
}
