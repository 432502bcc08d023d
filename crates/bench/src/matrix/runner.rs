//! The single matrix runner: executes any glob-selected slice of the job
//! table (`corpus × algorithm`) and the serving table
//! (`corpus × backend`) and emits one [`MatrixReport`].
//!
//! Per corpus the runner computes one exact answer per stream query
//! ([`grid_index_topk`]) and asserts every job's top-k and every
//! response byte-identical to it. Per row it collects one latency
//! observation per query (the job's wall clock on a job row, the
//! `execute` call's on a serving row) and summarizes the sample through
//! [`criterion::stats::summarize`] — bootstrap 95% intervals for
//! mean/p50/p99 plus the Tukey outlier census. Everything data-shaped is
//! deterministic from the seed — including the [`Counters`] block,
//! summed from the jobs' `JobStats` on a job row and from every
//! response's `QueryStats` and the service's kernel counters on a
//! serving row, which is what `spq-bench compare` gates on; only the
//! latencies themselves are machine-dependent.
//!
//! A serving row is measured on sequential `execute` calls. The runner
//! then serves the same stream twice more on the same service, with no
//! row of its own: concurrently (`execute_sequential` tasks on
//! `workers` threads) and through the admission queue at 2× overload.
//! Each must answer the reference bytes and sum to the row's counters,
//! and the admission run must shed exactly half of what it is offered;
//! a failure panics naming the row.

use super::corpus::CORPORA;
use super::record::{
    Counters, JobCounters, MatrixRecord, MatrixReport, ReportConfig, ServeCounters,
};
use super::{glob_match, job_id, serve_id};
use criterion::stats::{summarize, BootstrapConfig, Sample};
use spq_core::centralized::grid_index_topk;
use spq_core::partitioning::{COUNTER_MAP_DUPLICATES, COUNTER_REDUCE_FEATURES_EXAMINED};
use spq_core::{
    AdmissionConfig, AdmissionQueue, Algorithm, Backend, OverflowPolicy, QueryExecutor,
    QueryRequest, QueryResponse, RankedObject, SpqError, SpqExecutor, SpqQuery, SpqService, Ticket,
};
use spq_data::Dataset;
use spq_mapreduce::pool::run_tasks;
use spq_mapreduce::ClusterConfig;
use std::time::{Duration, Instant};

/// Requests per admission window in the overload run.
const ADMISSION_WINDOW: usize = 8;

/// Configuration of one matrix run.
#[derive(Debug, Clone)]
pub struct MatrixConfig {
    /// Backends of the serving table, in id order.
    pub backends: Vec<Backend>,
    /// Optional id glob; `None` runs the full matrix.
    pub filter: Option<String>,
    /// Corpus size multiplier (1k-object floor per corpus).
    pub scale: f64,
    /// Dataset / stream seed.
    pub seed: u64,
    /// Worker threads: job cluster, serve concurrency and scatter width.
    pub workers: usize,
    /// Measured queries per row.
    pub queries: usize,
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
            queries: 16,
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
/// Panics if any job or any response diverges from the corpus's
/// reference answers — the byte-identity gate every record attests to —
/// or if a serving row's concurrent or admission run disagrees with its
/// `execute` run.
pub fn run_matrix(cfg: &MatrixConfig) -> MatrixReport {
    assert!(!cfg.backends.is_empty(), "need at least one backend");
    let mut records = Vec::new();
    for spec in &CORPORA {
        // Only pay for dataset generation when some row of this corpus
        // survives the filter.
        let jobs: Vec<Algorithm> = Algorithm::ALL
            .into_iter()
            .filter(|a| selected(&cfg.filter, &job_id(spec.name, a.name())))
            .collect();
        let serves: Vec<Backend> = cfg
            .backends
            .iter()
            .copied()
            .filter(|b| selected(&cfg.filter, &serve_id(spec.name, &b.to_string())))
            .collect();
        let rows = jobs.len() + serves.len();
        if rows == 0 {
            eprintln!("[matrix] {}: skipped (filter)", spec.name);
            continue;
        }

        let dataset = spec.generate(cfg.scale, cfg.seed);
        let objects = dataset.total();
        eprintln!("[matrix] {}: {objects} objects, {rows} rows", spec.name);
        let queries = spec.query_stream(&dataset, cfg.seed).batch(cfg.queries);
        let reference = reference_answers(&dataset, &queries, cfg.workers);
        let (shared, _) = dataset.to_shared_splits(8);
        let exec = SpqExecutor::new(dataset.bounds)
            .grid_size(spec.grid)
            .cluster(ClusterConfig::with_workers(cfg.workers));

        for algorithm in jobs {
            let id = job_id(spec.name, algorithm.name());
            let exec = exec.clone().algorithm(algorithm);
            let mut counters = JobCounters::default();
            let mut latencies = Vec::with_capacity(queries.len());
            let wall = Instant::now();
            for (query, expect) in queries.iter().zip(&reference) {
                let t0 = Instant::now();
                let job = exec.run_dataset(&shared, query).expect("job");
                latencies.push(t0.elapsed());
                check(&id, &job.top_k, expect);
                counters.map_input_records += job.stats.map_input_records();
                counters.map_duplicates += job.stats.counters.get(COUNTER_MAP_DUPLICATES);
                counters.reduce_features_examined +=
                    job.stats.counters.get(COUNTER_REDUCE_FEATURES_EXAMINED);
            }
            let measured = Measured {
                latencies,
                wall: wall.elapsed(),
                counters: Counters::Job(counters),
            };
            records.push(make_record(id, objects, measured, cfg));
        }

        let requests: Vec<QueryRequest> = queries.into_iter().map(QueryRequest::new).collect();
        for backend in serves {
            let id = serve_id(spec.name, &backend.to_string());
            let service =
                SpqService::build(exec.clone(), shared.clone(), backend).expect("service build");
            let measured = measure_serving(&service, &requests, &reference, cfg, &id);
            records.push(make_record(id, objects, measured, cfg));
        }
    }
    MatrixReport {
        schema_version: super::record::SCHEMA_VERSION,
        config: ReportConfig {
            seed: cfg.seed,
            scale: cfg.scale,
            queries: cfg.queries,
            workers: cfg.workers,
            filter: cfg.filter.clone(),
        },
        records,
    }
}

/// One exact answer per query, [`grid_index_topk`] over the whole
/// corpus: the reference every job and every response is checked
/// against. `workers` threads compute it, one run of queries each; a
/// panic in one is re-raised when the scope ends.
fn reference_answers(
    dataset: &Dataset,
    queries: &[SpqQuery],
    workers: usize,
) -> Vec<Vec<RankedObject>> {
    let mut answers = vec![Vec::new(); queries.len()];
    let per_thread = queries.len().div_ceil(workers.max(1)).max(1);
    std::thread::scope(|scope| {
        for (queries, answers) in queries
            .chunks(per_thread)
            .zip(answers.chunks_mut(per_thread))
        {
            scope.spawn(move || {
                for (query, answer) in queries.iter().zip(answers) {
                    *answer =
                        grid_index_topk(dataset.bounds, &dataset.data, &dataset.features, query);
                }
            });
        }
    });
    answers
}

/// What one row's measurement produced: the per-query latency sample,
/// the row's wall clock, and its gated counters.
struct Measured {
    latencies: Vec<Duration>,
    wall: Duration,
    counters: Counters,
}

/// The byte-identity gate: row `id`'s answer to one query must equal the
/// corpus's reference answer exactly.
fn check(id: &str, answer: &[RankedObject], expect: &[RankedObject]) {
    assert_eq!(answer, expect, "{id}: diverged from the reference");
}

/// Checks one response against the reference bytes and adds its
/// `QueryStats` to the row's counters.
fn check_and_tally(
    counters: &mut ServeCounters,
    response: &QueryResponse,
    expect: &[RankedObject],
    id: &str,
) {
    check(id, &response.results, expect);
    let stats = &response.stats;
    counters.shards_touched += stats.shards_touched as u64;
    counters.shuffle_records += stats.shuffle_records;
    counters.shuffle_bytes += stats.shuffle_bytes;
    counters.keyword_terms_probed += stats.keyword_terms_probed as u64;
    counters.keyword_terms_matched += stats.keyword_terms_matched as u64;
    counters.retries += stats.retries;
    counters.results += response.results.len() as u64;
}

/// Measures one serving row: sequential `execute` calls give its latency
/// sample and counters. The concurrent run and the admission run follow
/// on the same service, and each must sum to the same counters.
fn measure_serving(
    service: &SpqService,
    requests: &[QueryRequest],
    reference: &[Vec<RankedObject>],
    cfg: &MatrixConfig,
    id: &str,
) -> Measured {
    let wall = Instant::now();
    let (latencies, counters) = counted(service, |counters| {
        requests
            .iter()
            .zip(reference)
            .map(|(request, expect)| {
                let t0 = Instant::now();
                let response = service.execute(request).expect("execute");
                let latency = t0.elapsed();
                check_and_tally(counters, &response, expect, id);
                latency
            })
            .collect::<Vec<_>>()
    });
    let wall = wall.elapsed();

    let ((), concurrent) = counted(service, |counters| {
        let responses = run_tasks(cfg.workers.max(1), requests.len(), |i| {
            service.execute_sequential(&requests[i])
        })
        .unwrap_or_else(|p| panic!("{id}: concurrent request {}: {}", p.task_index, p.message));
        for (response, expect) in responses.into_iter().zip(reference) {
            check_and_tally(counters, &response.expect("concurrent"), expect, id);
        }
    });
    agree(id, "concurrent", &counters, &concurrent);
    let ((), admission) = counted(service, |counters| {
        serve_admission(service, requests, reference, counters, id)
    });
    agree(id, "admission", &counters, &admission);

    Measured {
        latencies,
        wall,
        counters: Counters::Serve(counters),
    }
}

/// Runs `run` on fresh counters and adds the service's kernel counter
/// deltas around it: the kernel's work is not on any response.
fn counted<T>(
    service: &SpqService,
    run: impl FnOnce(&mut ServeCounters) -> T,
) -> (T, ServeCounters) {
    let mut counters = ServeCounters::default();
    let before = service.metrics();
    let out = run(&mut counters);
    let after = service.metrics();
    counters.kernel_candidates = after.kernel_candidates - before.kernel_candidates;
    counters.kernel_visited = after.kernel_visited - before.kernel_visited;
    counters.kernel_distance_checks = after.kernel_distance_checks - before.kernel_distance_checks;
    (out, counters)
}

/// The serving paths' agreement: the `path` run of row `id` must sum to
/// the `execute` run's counters exactly.
fn agree(id: &str, path: &str, execute: &ServeCounters, other: &ServeCounters) {
    assert_eq!(
        other, execute,
        "{id}: the {path} run's counters differ from the execute run's"
    );
}

/// Drives the admission front-end at exactly 2× overload with a fully
/// deterministic schedule:
///
/// * the cap is sized for 1.5× the stream, so of the second (overload)
///   copy exactly half is admitted and half rejected with `Overloaded`;
/// * the admitted overload copies carry an already-expired deadline, so
///   the first pump sheds every one of them with `DeadlineExceeded`;
/// * the originals carry no deadline and a higher priority, execute in
///   coalesced windows of [`ADMISSION_WINDOW`], and are asserted
///   byte-identical to the reference answers and tallied.
///
/// Asserts that rejections plus sheds are exactly half of what was
/// offered.
fn serve_admission(
    service: &SpqService,
    requests: &[QueryRequest],
    reference: &[Vec<RankedObject>],
    counters: &mut ServeCounters,
    id: &str,
) {
    let n = requests.len();
    let queue = AdmissionQueue::new(
        service,
        AdmissionConfig::default()
            .with_max_in_flight((n + n / 2).max(1))
            .with_batch_max(ADMISSION_WINDOW)
            .with_batch_ticks(1)
            .with_overflow(OverflowPolicy::Reject),
    )
    .expect("admission config");

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

    assert_eq!(report.executed, n, "{id}: every original executes");
    assert_eq!(rejected, n - n / 2, "{id}: overload rejections at the cap");
    for ticket in doomed {
        match ticket.wait() {
            Err(SpqError::DeadlineExceeded { .. }) => {}
            other => panic!("{id}: overload copy should be shed, got {other:?}"),
        }
    }
    for (ticket, expect) in originals.into_iter().zip(reference) {
        let response = ticket.wait().expect("admitted original");
        check_and_tally(counters, &response, expect, id);
    }
    let stats = queue.stats();
    let shed_rate = (stats.rejected_overload + stats.shed_deadline) as f64 / stats.submitted as f64;
    assert_eq!(shed_rate, 0.5, "{id}: 2x overload must shed exactly half");
}

fn make_record(id: String, objects: usize, measured: Measured, cfg: &MatrixConfig) -> MatrixRecord {
    let ms: Vec<f64> = measured
        .latencies
        .iter()
        .map(|d| d.as_secs_f64() * 1e3)
        .collect();
    let summary = summarize(&Sample::new(ms), &cfg.bootstrap);
    MatrixRecord {
        id,
        objects,
        samples: summary.samples,
        qps: measured.latencies.len() as f64 / measured.wall.as_secs_f64().max(1e-12),
        // Reaching this point at all means every check above held.
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
        let uniform = Some("*/uniform-120k/*".to_owned());
        assert!(selected(&uniform, "job/uniform-120k/pSPQ"));
        assert!(selected(&uniform, "serve/uniform-120k/local"));
        assert!(!selected(&uniform, "serve/flickr-40k/local"));
    }

    #[test]
    #[should_panic(expected = "serve/uniform-120k/local: diverged from the reference")]
    fn a_diverging_answer_panics_naming_the_row() {
        use spq_spatial::Point;
        use spq_text::Score;
        let answer = |score| vec![RankedObject::new(7, Point::new(0.5, 0.5), score)];
        check(
            "job/uniform-120k/pSPQ",
            &answer(Score::ONE),
            &answer(Score::ONE),
        );
        check(
            "serve/uniform-120k/local",
            &answer(Score::ratio(1, 2)),
            &answer(Score::ONE),
        );
    }

    #[test]
    #[should_panic(
        expected = "serve/flickr-40k/sharded:4: the admission run's counters differ from the execute run's"
    )]
    fn a_serving_path_that_disagrees_panics_naming_the_row() {
        let execute = ServeCounters {
            shards_touched: 16,
            kernel_visited: 480,
            ..ServeCounters::default()
        };
        agree(
            "serve/flickr-40k/sharded:4",
            "concurrent",
            &execute,
            &execute,
        );
        let admission = ServeCounters {
            kernel_visited: 481,
            ..execute
        };
        agree(
            "serve/flickr-40k/sharded:4",
            "admission",
            &execute,
            &admission,
        );
    }
}
