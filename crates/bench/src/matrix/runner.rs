//! The single matrix runner: executes any glob-selected slice of
//! `corpus × algorithm × backend × mode` and emits one [`MatrixReport`].
//!
//! Per benchmark id the runner collects one latency observation per
//! query (amortized batch wall for `execute-batch`, the response's own
//! `wall_micros` for `serve`), asserts every response byte-identical to
//! the paper's job ([`SpqExecutor::run_dataset`] over the whole store),
//! and summarizes the sample
//! through [`criterion::stats::summarize`] — bootstrap 95% intervals for
//! mean/p50/p99 plus the Tukey outlier census. Everything data-shaped is
//! deterministic from the seed — including the [`Counters`] block summed
//! from every response's `QueryStats`, from the reference jobs and
//! from the service's kernel counters, which is what `spq-bench compare`
//! gates on; only the latencies themselves are machine-dependent.

use super::corpus::{Mode, CORPORA};
use super::record::{Counters, MatrixRecord, MatrixReport, ReportConfig};
use super::{bench_id, glob_match};
use criterion::stats::{summarize, BootstrapConfig, Sample};
use spq_core::partitioning::{COUNTER_MAP_DUPLICATES, COUNTER_REDUCE_FEATURES_EXAMINED};
use spq_core::{
    AdmissionConfig, AdmissionQueue, Algorithm, Backend, OverflowPolicy, QueryExecutor,
    QueryRequest, QueryResponse, RankedObject, SpqError, SpqExecutor, SpqService, Ticket,
};
use spq_mapreduce::ClusterConfig;
use std::time::{Duration, Instant};

/// Configuration of one matrix run.
#[derive(Debug, Clone)]
pub struct MatrixConfig {
    /// Backends measured per corpus/algorithm, in id order.
    pub backends: Vec<Backend>,
    /// Optional id glob; `None` runs the full matrix.
    pub filter: Option<String>,
    /// Corpus size multiplier (1k-object floor per corpus).
    pub scale: f64,
    /// Dataset / stream seed.
    pub seed: u64,
    /// Worker threads: serve concurrency and scatter width.
    pub workers: usize,
    /// Measured queries per benchmark id.
    pub queries: usize,
    /// `execute-batch` chunk size.
    pub batch: usize,
    /// Bootstrap parameters for the per-record statistics.
    pub bootstrap: BootstrapConfig,
}

impl Default for MatrixConfig {
    fn default() -> Self {
        Self {
            backends: vec![
                Backend::Local,
                Backend::Sharded { shards: 4 },
                Backend::Remote { workers: 2 },
            ],
            filter: None,
            scale: 1.0,
            seed: 2017,
            workers: ClusterConfig::auto().workers,
            queries: 24,
            batch: 8,
            bootstrap: BootstrapConfig::default(),
        }
    }
}

fn selected(filter: &Option<String>, id: &str) -> bool {
    filter.as_deref().is_none_or(|glob| glob_match(glob, id))
}

/// Runs the selected slice of the matrix.
///
/// # Panics
///
/// Panics if any backend/mode response diverges from the reference job —
/// the byte-identity gate every record attests to.
pub fn run_matrix(cfg: &MatrixConfig) -> MatrixReport {
    assert!(!cfg.backends.is_empty(), "need at least one backend");
    let mut records = Vec::new();
    for spec in &CORPORA {
        // Only pay for dataset generation when some id under this corpus
        // survives the filter.
        let wanted: Vec<(Algorithm, Backend, Mode)> = Algorithm::ALL
            .iter()
            .flat_map(|&algorithm| {
                cfg.backends.iter().flat_map(move |&backend| {
                    Mode::ALL
                        .iter()
                        .map(move |&mode| (algorithm, backend, mode))
                })
            })
            .filter(|(algorithm, backend, mode)| {
                selected(
                    &cfg.filter,
                    &bench_id(
                        spec.name,
                        algorithm.name(),
                        &backend.to_string(),
                        mode.name(),
                    ),
                )
            })
            .collect();
        if wanted.is_empty() {
            eprintln!("[matrix] {}: skipped (filter)", spec.name);
            continue;
        }

        let dataset = spec.generate(cfg.scale, cfg.seed);
        let objects = dataset.total();
        eprintln!(
            "[matrix] {}: {objects} objects, {} benchmark ids",
            spec.name,
            wanted.len()
        );
        let bounds = dataset.bounds;
        let queries = spec.query_stream(&dataset, cfg.seed).batch(cfg.queries);
        let requests: Vec<QueryRequest> = queries.iter().cloned().map(QueryRequest::new).collect();
        let (shared, _) = dataset.to_shared_splits(8);

        for &algorithm in Algorithm::ALL.iter() {
            if !wanted.iter().any(|(a, _, _)| *a == algorithm) {
                continue;
            }
            let exec = SpqExecutor::new(bounds)
                .algorithm(algorithm)
                .grid_size(spec.grid)
                .cluster(ClusterConfig::with_workers(cfg.workers));
            // The reference is the paper's job, not the kernel every
            // backend answers with, and the job-level counters no
            // `QueryStats` carries (map input, Lemma-1 copies, reducer
            // work) are gated too.
            let mut job_counters = Counters::default();
            let reference: Vec<Vec<RankedObject>> = queries
                .iter()
                .map(|q| {
                    let job = exec.run_dataset(&shared, q).expect("reference job");
                    job_counters.map_input_records += job.stats.map_input_records();
                    job_counters.map_duplicates += job.stats.counters.get(COUNTER_MAP_DUPLICATES);
                    job_counters.reduce_features_examined +=
                        job.stats.counters.get(COUNTER_REDUCE_FEATURES_EXAMINED);
                    job.top_k
                })
                .collect();

            for &backend in &cfg.backends {
                let modes: Vec<Mode> = wanted
                    .iter()
                    .filter(|(a, b, _)| *a == algorithm && *b == backend)
                    .map(|(_, _, m)| *m)
                    .collect();
                if modes.is_empty() {
                    continue;
                }
                let service = SpqService::build(exec.clone(), shared.clone(), backend)
                    .expect("service build");
                for mode in modes {
                    let id = bench_id(
                        spec.name,
                        algorithm.name(),
                        &backend.to_string(),
                        mode.name(),
                    );
                    let before = service.metrics();
                    let mut measured = measure_mode(
                        &service,
                        &requests,
                        &reference,
                        job_counters,
                        mode,
                        cfg,
                        &id,
                    );
                    // The kernel's work is not on any response: read it as
                    // the service's counter deltas around the mode's run.
                    let after = service.metrics();
                    let c = &mut measured.counters;
                    c.kernel_candidates = after.kernel_candidates - before.kernel_candidates;
                    c.kernel_visited = after.kernel_visited - before.kernel_visited;
                    c.kernel_distance_checks =
                        after.kernel_distance_checks - before.kernel_distance_checks;
                    records.push(make_record(
                        &id, spec.name, algorithm, backend, mode, objects, measured, cfg,
                    ));
                }
            }
        }
    }
    MatrixReport {
        schema_version: super::record::SCHEMA_VERSION,
        config: ReportConfig {
            seed: cfg.seed,
            scale: cfg.scale,
            queries: cfg.queries,
            batch: cfg.batch,
            workers: cfg.workers,
            filter: cfg.filter.clone(),
        },
        records,
    }
}

/// What one mode measurement produced: the per-query latency sample, the
/// mode's wall clock, the fraction of offered requests not answered
/// (nonzero only for `serve-admission`), and the `QueryStats` sums of
/// the answered ones.
struct Measured {
    latencies: Vec<Duration>,
    wall: Duration,
    shed_rate: f64,
    counters: Counters,
}

/// Checks one response against the reference bytes and adds its
/// `QueryStats` to the id's counters.
fn check_and_tally(
    counters: &mut Counters,
    response: &QueryResponse,
    expect: &[RankedObject],
    id: &str,
) {
    assert_eq!(response.results, expect, "{id}: diverged from reference");
    let stats = &response.stats;
    counters.shards_touched += stats.shards_touched as u64;
    counters.shuffle_records += stats.shuffle_records;
    counters.shuffle_bytes += stats.shuffle_bytes;
    counters.keyword_terms_probed += stats.keyword_terms_probed as u64;
    counters.keyword_terms_matched += stats.keyword_terms_matched as u64;
    counters.retries += stats.retries;
    counters.results += response.results.len() as u64;
}

/// Measures one mode. `counters` arrives holding the reference jobs'
/// job-level sums; the mode's own `QueryStats` sums are added to it.
fn measure_mode(
    service: &SpqService,
    requests: &[QueryRequest],
    reference: &[Vec<RankedObject>],
    mut counters: Counters,
    mode: Mode,
    cfg: &MatrixConfig,
    id: &str,
) -> Measured {
    match mode {
        Mode::Execute => {
            let mut latencies = Vec::with_capacity(requests.len());
            let wall = Instant::now();
            for (request, expect) in requests.iter().zip(reference) {
                let t0 = Instant::now();
                let response = service.execute(request).expect("execute");
                latencies.push(t0.elapsed());
                check_and_tally(&mut counters, &response, expect, id);
            }
            Measured {
                latencies,
                wall: wall.elapsed(),
                shed_rate: 0.0,
                counters,
            }
        }
        Mode::ExecuteBatch => {
            let mut latencies = Vec::with_capacity(requests.len());
            let chunk_size = cfg.batch.max(1);
            let wall = Instant::now();
            for (chunk, expect) in requests
                .chunks(chunk_size)
                .zip(reference.chunks(chunk_size))
            {
                let t0 = Instant::now();
                let responses = service.execute_batch(chunk).expect("batch");
                let amortized = t0.elapsed() / chunk.len() as u32;
                for (response, expect) in responses.iter().zip(expect) {
                    check_and_tally(&mut counters, response, expect, id);
                    latencies.push(amortized);
                }
            }
            Measured {
                latencies,
                wall: wall.elapsed(),
                shed_rate: 0.0,
                counters,
            }
        }
        Mode::Serve => {
            let wall = Instant::now();
            let responses = service
                .serve_requests(requests, cfg.workers.max(1))
                .expect("serve");
            let wall = wall.elapsed();
            let latencies = responses
                .iter()
                .zip(reference)
                .map(|(response, expect)| {
                    check_and_tally(&mut counters, response, expect, id);
                    Duration::from_micros(response.stats.wall_micros)
                })
                .collect();
            Measured {
                latencies,
                wall,
                shed_rate: 0.0,
                counters,
            }
        }
        Mode::ServeAdmission => {
            measure_serve_admission(service, requests, reference, counters, cfg, id)
        }
    }
}

/// Drives the admission front-end at exactly 2× overload, the ISSUE's
/// acceptance scenario, with a fully deterministic schedule:
///
/// * the cap is sized for 1.5× the stream, so of the second (overload)
///   copy exactly half is admitted and half rejected with `Overloaded`;
/// * the admitted overload copies carry an already-expired deadline, so
///   the first pump sheds every one of them with `DeadlineExceeded`;
/// * the originals carry no deadline and a higher priority, execute in
///   coalesced windows, and are asserted byte-identical to the
///   reference job.
///
/// The latency sample is the executed originals' own `wall_micros`; the
/// shed rate is `(rejected + shed) / offered = 0.5` by construction.
fn measure_serve_admission(
    service: &SpqService,
    requests: &[QueryRequest],
    reference: &[Vec<RankedObject>],
    mut counters: Counters,
    cfg: &MatrixConfig,
    id: &str,
) -> Measured {
    let n = requests.len();
    let queue = AdmissionQueue::new(
        service,
        AdmissionConfig::default()
            .with_max_in_flight((n + n / 2).max(1))
            .with_batch_max(cfg.batch.max(1))
            .with_batch_ticks(1)
            .with_overflow(OverflowPolicy::Reject),
    )
    .expect("admission config");

    let wall = Instant::now();
    let originals: Vec<Ticket> = requests
        .iter()
        .map(|r| {
            queue
                .submit(r.clone().with_priority(1))
                .expect("under-cap submit")
        })
        .collect();
    // The overload copy: same stream again, lower priority, deadline
    // already behind the clock at the first window close.
    let mut rejected = 0usize;
    let doomed: Vec<Ticket> = requests
        .iter()
        .filter_map(|r| match queue.submit(r.clone().with_deadline(0)) {
            Ok(ticket) => Some(ticket),
            Err(SpqError::Overloaded { .. }) => {
                rejected += 1;
                None
            }
            Err(other) => panic!("{id}: unexpected submit error: {other}"),
        })
        .collect();
    let report = queue.drain();
    let wall = wall.elapsed();

    assert_eq!(report.executed, n, "{id}: every original executes");
    assert_eq!(rejected, n - n / 2, "{id}: overload rejections at the cap");
    for ticket in doomed {
        match ticket.wait() {
            Err(SpqError::DeadlineExceeded { .. }) => {}
            other => panic!("{id}: overload copy should be shed, got {other:?}"),
        }
    }
    let latencies: Vec<Duration> = originals
        .into_iter()
        .zip(reference)
        .map(|(ticket, expect)| {
            let response = ticket.wait().expect("admitted original");
            check_and_tally(&mut counters, &response, expect, id);
            Duration::from_micros(response.stats.wall_micros)
        })
        .collect();
    let stats = queue.stats();
    let offered = stats.submitted.max(1);
    Measured {
        latencies,
        wall,
        shed_rate: (stats.rejected_overload + stats.shed_deadline) as f64 / offered as f64,
        counters,
    }
}

// One call site, assembling a record from the measurement locals; a
// params struct would just restate the Record fields.
#[allow(clippy::too_many_arguments)]
fn make_record(
    id: &str,
    corpus: &str,
    algorithm: Algorithm,
    backend: Backend,
    mode: Mode,
    objects: usize,
    measured: Measured,
    cfg: &MatrixConfig,
) -> MatrixRecord {
    let ms: Vec<f64> = measured
        .latencies
        .iter()
        .map(|d| d.as_secs_f64() * 1e3)
        .collect();
    let summary = summarize(&Sample::new(ms), &cfg.bootstrap);
    MatrixRecord {
        id: id.to_owned(),
        corpus: corpus.to_owned(),
        algorithm: algorithm.name().to_owned(),
        backend: backend.to_string(),
        mode: mode.name().to_owned(),
        objects,
        samples: summary.samples,
        qps: measured.latencies.len() as f64 / measured.wall.as_secs_f64().max(1e-12),
        shed_rate: measured.shed_rate,
        // Reaching this point at all means every assert above held.
        identical_to_reference: true,
        counters: measured.counters,
        mean_ms: summary.mean,
        p50_ms: summary.p50,
        p99_ms: summary.p99,
        outliers: summary.outliers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filters_skip_whole_corpora() {
        assert!(selected(&None, "anything"));
        assert!(selected(
            &Some("uniform-120k/*".into()),
            "uniform-120k/pSPQ/local/execute"
        ));
        assert!(!selected(
            &Some("uniform-120k/*".into()),
            "flickr-40k/pSPQ/local/execute"
        ));
    }
}
