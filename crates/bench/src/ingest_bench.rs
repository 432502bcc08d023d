//! The loaded-dataset bench behind `spq-bench --data-tsv/--features-tsv`
//! and the `BENCH_INGEST.json` document.
//!
//! This bench **loads** a dataset from an external
//! `id<TAB>x<TAB>y<TAB>keywords` dump through `spq_data::ingest`, then
//! pushes a query stream authored against the ingested vocabulary through
//! a `job` mode — one fresh [`SpqExecutor::run_dataset`] job per query,
//! exactly the in-memory generated-dataset lifecycle run over the loaded
//! objects — and the three facade modes of a local engine
//! (`backend_bench::measure_modes`). Every facade response is
//! asserted byte-identical to its `job` answer, which proves the ingest
//! path changes nothing about query answers — only where the objects came
//! from. Reported on top of the per-mode QPS numbers: ingest wall-clock
//! and throughput in objects per second.

use crate::backend_bench::{json_algorithms, measure_modes, mode_stats, BackendAlgoReport};
use spq_core::{Algorithm, Backend, QueryRequest, SpqExecutor, SpqService};
use spq_data::{ingest, IngestOptions, QueryStream, StreamConfig};
use spq_mapreduce::ClusterConfig;
use std::path::PathBuf;
use std::time::Instant;

/// Configuration of one loaded-dataset bench run.
#[derive(Debug, Clone)]
pub struct IngestBenchConfig {
    /// Path of the data-object dump (`id<TAB>x<TAB>y` lines).
    pub data_tsv: PathBuf,
    /// Path of the feature-object dump (`id<TAB>x<TAB>y<TAB>kw,...`).
    pub features_tsv: PathBuf,
    /// RNG seed for the query stream.
    pub seed: u64,
    /// Worker threads: intra-query for `job`/`execute`/`execute-batch`,
    /// inter-query for `serve`.
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

impl Default for IngestBenchConfig {
    fn default() -> Self {
        Self {
            data_tsv: PathBuf::new(),
            features_tsv: PathBuf::new(),
            seed: 2017,
            workers: ClusterConfig::auto().workers,
            queries: 32,
            batch: 8,
            grid: crate::params::DEFAULT_GRID_SYNTH,
            hotspot_fraction: 0.5,
            hotspots: 8,
        }
    }
}

/// Load-phase measurements.
#[derive(Debug, Clone)]
pub struct IngestPhase {
    /// Objects loaded, `|O| + |F|`.
    pub objects: usize,
    /// Data objects loaded.
    pub data_objects: usize,
    /// Feature objects loaded.
    pub feature_objects: usize,
    /// Distinct keywords interned from the dump.
    pub vocab_terms: usize,
    /// Total lines read across both files.
    pub lines: u64,
    /// Lines dropped by the malformed-line policy (0 under `Fail`).
    pub skipped: u64,
    /// Ingest wall-clock, milliseconds.
    pub wall_ms: f64,
    /// Ingest throughput, objects per second.
    pub objects_per_sec: f64,
}

/// The full loaded-dataset report.
#[derive(Debug, Clone)]
pub struct IngestReport {
    /// Workload id (`ingest-tsv`).
    pub id: &'static str,
    /// Load-phase measurements.
    pub ingest: IngestPhase,
    /// Per-algorithm serving modes over the loaded dataset (`job` /
    /// `execute` / `execute-batch` / `serve`), in `Algorithm::ALL` order.
    /// Byte-identity of every facade mode against the in-memory `job`
    /// lifecycle is asserted during measurement.
    pub algorithms: Vec<BackendAlgoReport>,
}

/// Ingests the dump and measures the serving modes over it. Fails with
/// the ingest error of an unreadable dump, or the [`spq_core::SpqError`]
/// of a failed job or engine build.
///
/// # Panics
///
/// Panics (inside `measure_modes`) if any serving mode diverges from
/// the in-memory job-per-query path — the CI gate this bench exists for.
pub fn run_ingest_bench(
    cfg: &IngestBenchConfig,
) -> Result<IngestReport, Box<dyn std::error::Error>> {
    eprintln!(
        "[ingest-tsv] loading {} + {}",
        cfg.data_tsv.display(),
        cfg.features_tsv.display()
    );
    let t0 = Instant::now();
    let loaded = ingest::ingest_files(&cfg.data_tsv, &cfg.features_tsv, &IngestOptions::default())?;
    let wall = t0.elapsed();
    let objects = loaded.objects();
    let ingest_phase = IngestPhase {
        objects,
        data_objects: loaded.dataset.data.len(),
        feature_objects: loaded.dataset.features.len(),
        vocab_terms: loaded.vocab.len(),
        lines: loaded.lines,
        skipped: loaded.skips.total(),
        wall_ms: wall.as_secs_f64() * 1e3,
        objects_per_sec: objects as f64 / wall.as_secs_f64().max(1e-12),
    };
    eprintln!(
        "[ingest-tsv] {} objects, {} terms in {:.0} ms ({:.0} objects/s)",
        ingest_phase.objects,
        ingest_phase.vocab_terms,
        ingest_phase.wall_ms,
        ingest_phase.objects_per_sec
    );

    // Queries are authored against the *ingested* vocabulary and bounds:
    // keyword ids from the interner's range, radii as fractions of the
    // loaded grid's cell side.
    let cell = loaded
        .dataset
        .bounds
        .width()
        .max(loaded.dataset.bounds.height())
        / cfg.grid as f64;
    let vocab_size = loaded.dataset.vocab_size.max(1);
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
            // A real dump can carry fewer distinct keywords than the
            // default per-query count; clamp so tiny vocabularies bench
            // instead of tripping the distinct-draw assertion.
            keywords_per_query: defaults.keywords_per_query.min(vocab_size),
            ..defaults
        },
    );
    let queries = stream.batch(cfg.queries);
    let requests: Vec<QueryRequest> = queries.iter().cloned().map(QueryRequest::new).collect();
    let (shared, _) = loaded.dataset.to_shared_splits(8);
    let mut algorithms = Vec::with_capacity(Algorithm::ALL.len());
    for algorithm in Algorithm::ALL {
        eprintln!(
            "[ingest-tsv] {algorithm}: {} queries x 4 modes",
            queries.len()
        );
        let exec = SpqExecutor::new(loaded.dataset.bounds)
            .algorithm(algorithm)
            .grid_size(cfg.grid)
            .cluster(ClusterConfig::with_workers(cfg.workers));

        // -- job: the in-memory job-per-query lifecycle, the reference ----
        let mut latencies = Vec::with_capacity(queries.len());
        let mut reference = Vec::with_capacity(queries.len());
        let wall = Instant::now();
        for q in &queries {
            let t0 = Instant::now();
            let result = exec.run_dataset(&shared, q)?;
            latencies.push(t0.elapsed());
            reference.push(result.top_k);
        }
        let mut modes = vec![mode_stats("job", latencies, wall.elapsed())];

        let service = SpqService::build(exec, shared.clone(), Backend::Local)?;
        let (facade_modes, stats) = measure_modes(
            &format!("ingest-tsv/{algorithm}"),
            &service,
            &requests,
            &reference,
            cfg.batch,
            cfg.workers,
        );
        modes.extend(facade_modes);
        algorithms.push(BackendAlgoReport {
            algorithm,
            modes,
            stats,
        });
    }

    Ok(IngestReport {
        id: "ingest-tsv",
        ingest: ingest_phase,
        algorithms,
    })
}

/// Renders the report as the `BENCH_INGEST.json` document.
pub fn ingest_to_json(cfg: &IngestBenchConfig, report: &IngestReport) -> String {
    let mut out = String::from("{\n  \"bench\": \"spq-bench ingest\",\n");
    out.push_str(&format!(
        "  \"config\": {{ \"data_tsv\": {:?}, \"features_tsv\": {:?}, \"seed\": {}, \"workers\": {}, \"queries\": {}, \"batch\": {}, \"grid\": {} }},\n",
        cfg.data_tsv.display().to_string(),
        cfg.features_tsv.display().to_string(),
        cfg.seed,
        cfg.workers,
        cfg.queries,
        cfg.batch,
        cfg.grid
    ));
    let i = &report.ingest;
    out.push_str(&format!(
        "  \"ingest\": {{ \"objects\": {}, \"data_objects\": {}, \"feature_objects\": {}, \"vocab_terms\": {}, \"lines\": {}, \"skipped\": {}, \"wall_ms\": {:.3}, \"objects_per_sec\": {:.0} }},\n",
        i.objects, i.data_objects, i.feature_objects, i.vocab_terms, i.lines, i.skipped, i.wall_ms, i.objects_per_sec
    ));
    // The measurement asserts facade/job byte-identity; reaching the
    // report at all means it held.
    out.push_str("  \"modes_identical_to_fresh_jobs\": true,\n");
    out.push_str(&format!(
        "  \"workloads\": [\n    {{\n      \"id\": \"{}\",\n      \"objects\": {},\n      \"algorithms\": [\n",
        report.id, i.objects
    ));
    out.push_str(&json_algorithms(&report.algorithms));
    out.push_str("      ]\n    }\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use spq_data::ingest::{synthesize_dump, DumpConfig};

    #[test]
    fn loaded_dump_serves_identically_and_renders() {
        let dir = std::env::temp_dir();
        let d = dir.join(format!("spq-ingest-bench-{}-d.tsv", std::process::id()));
        let f = dir.join(format!("spq-ingest-bench-{}-f.tsv", std::process::id()));
        synthesize_dump(
            &DumpConfig {
                objects: 1200,
                seed: 5,
            },
            &d,
            &f,
        )
        .unwrap();
        let cfg = IngestBenchConfig {
            data_tsv: d.clone(),
            features_tsv: f.clone(),
            queries: 6,
            batch: 3,
            workers: 2,
            ..IngestBenchConfig::default()
        };
        // measure_modes asserts byte-identity of every serving mode
        // against the in-memory job-per-query path, so completing is the
        // correctness part.
        let report = run_ingest_bench(&cfg).unwrap();
        assert_eq!(report.ingest.objects, 1200);
        assert!(report.ingest.vocab_terms > 0);
        assert!(report.ingest.objects_per_sec > 0.0);
        assert_eq!(report.ingest.skipped, 0);
        assert_eq!(report.algorithms.len(), 3);
        for a in &report.algorithms {
            assert_eq!(a.modes.len(), 4);
        }
        let json = ingest_to_json(&cfg, &report);
        assert!(json.contains("\"objects_per_sec\""));
        assert!(json.contains("\"modes_identical_to_fresh_jobs\": true"));
        assert!(json.contains("\"execute-batch\""));
        assert!(json.contains("\"ingest-tsv\""));
        for p in [&d, &f] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn tiny_vocabulary_dump_still_benches() {
        // A valid dump whose features carry fewer distinct keywords than
        // the default keywords-per-query must bench, not panic in the
        // query stream's distinct-keyword draw.
        let dir = std::env::temp_dir();
        let d = dir.join(format!("spq-ingest-tiny-{}-d.tsv", std::process::id()));
        let f = dir.join(format!("spq-ingest-tiny-{}-f.tsv", std::process::id()));
        std::fs::write(&d, "1\t0.2\t0.2\n2\t0.8\t0.8\n").unwrap();
        std::fs::write(&f, "1\t0.3\t0.3\tonly\n2\t0.7\t0.7\tonly\n").unwrap();
        let cfg = IngestBenchConfig {
            data_tsv: d.clone(),
            features_tsv: f.clone(),
            queries: 3,
            batch: 2,
            workers: 1,
            ..IngestBenchConfig::default()
        };
        let report = run_ingest_bench(&cfg).unwrap();
        assert_eq!(report.ingest.vocab_terms, 1);
        assert_eq!(report.algorithms.len(), 3);
        for p in [&d, &f] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn missing_dump_is_an_error() {
        let cfg = IngestBenchConfig {
            data_tsv: PathBuf::from("/nonexistent/spq-data.tsv"),
            features_tsv: PathBuf::from("/nonexistent/spq-features.tsv"),
            ..IngestBenchConfig::default()
        };
        assert!(run_ingest_bench(&cfg).is_err());
    }
}
