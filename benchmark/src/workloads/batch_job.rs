//! `batch-job`: the paper's own shape — one MapReduce job per query, no
//! engine and no caches, all three algorithms in turn.

use super::{end_to_end, timed_setups, Failure, RunConfig, Sample, SliceClock, Spec};
use crate::corpus::{paper_queries, same_results, Corpus, Requests};
use crate::procstat::ProcessSet;
use crate::report::WorkloadReport;
use spq::prelude::*;
use std::time::Instant;

/// Name and reason.
pub const SPEC: Spec = Spec {
    name: "batch-job",
    why: "one job per query on clustered data, no engine or caches, pSPQ/eSPQlen/eSPQsco in turn: the \
          same mapreduce/algo/partitioning layers used the other way; a serving kernel must not move it",
};

/// Queries generated per run (the loop wraps if a window outlasts them).
pub const QUERY_POOL: usize = 2_048;

/// The executors of the three algorithms, `workers` threads per job.
pub fn executors(corpus: &Corpus, workers: usize) -> Vec<SpqExecutor> {
    Algorithm::ALL
        .iter()
        .map(|&algorithm| corpus.executor(workers).algorithm(algorithm))
        .collect()
}

/// Runs `query` through every algorithm in turn. The answer is the first
/// algorithm's, or a failure if any job errors or any two disagree.
pub fn run_all_algorithms(
    executors: &[SpqExecutor],
    dataset: &SharedDataset,
    query: &SpqQuery,
) -> Result<Vec<RankedObject>, Failure> {
    let mut answer: Option<Vec<RankedObject>> = None;
    for executor in executors {
        let result = executor
            .run_dataset(dataset, query)
            .map_err(|e| Failure::Error(e.to_string()))?;
        match &answer {
            None => answer = Some(result.top_k),
            Some(first) if same_results(first, &result.top_k) => {}
            Some(_) => {
                return Err(Failure::Error(format!(
                    "{} disagrees with {}",
                    result.algorithm,
                    executors[0].algorithm_choice()
                )))
            }
        }
    }
    answer.ok_or_else(|| Failure::Error("no algorithm configured".to_owned()))
}

/// The clustered corpus and its paper-style queries.
pub fn batch_inputs(cfg: &RunConfig) -> (Corpus, Requests) {
    let corpus = Corpus::clustered(cfg.clustered_objects, cfg.seed);
    let requests = paper_queries(&corpus, cfg.sub_seed(4), QUERY_POOL);
    (corpus, requests)
}

/// Runs the workload end to end (tracing off).
pub fn run(cfg: &RunConfig) -> Result<WorkloadReport, String> {
    let (corpus, requests) = batch_inputs(cfg);
    let executors = executors(&corpus, cfg.nproc);
    // There is no engine to build: set-up is copying the dataset behind
    // its `Arc`s and one job per algorithm, after which the process is
    // as warm as it gets.
    let first = &requests.list[0].query;
    let (dataset, setup_s) = timed_setups(|| {
        let dataset =
            SharedDataset::new(corpus.dataset.data.clone(), corpus.dataset.features.clone());
        run_all_algorithms(&executors, &dataset, first)
            .map_err(|e| format!("warm-up query failed: {e:?}"))?;
        Ok((dataset, 0.0))
    })?;

    let processes = ProcessSet::with_children(&[]);
    let mut clock = SliceClock::new(&processes, Instant::now() + cfg.warmup(), cfg.timed());
    let (start, end) = (clock.start(), clock.end());
    let mut samples = Vec::new();
    for query in (0..requests.list.len()).cycle() {
        clock.poll();
        let issued = Instant::now();
        if issued >= end {
            break;
        }
        let outcome = run_all_algorithms(&executors, &dataset, &requests.list[query].query);
        let done = Instant::now();
        if issued >= start {
            samples.push(Sample {
                query,
                done_s: (done - start).as_secs_f64(),
                latency_ms: (done - issued).as_secs_f64() * 1e3,
                engine_ms: 0.0,
                outcome,
            });
        }
    }
    let window = clock.finish(samples);
    let mut report = end_to_end(&SPEC, cfg, &corpus, &requests, window, setup_s);
    report.note("jobs_per_operation", Algorithm::ALL.len());
    Ok(report)
}
