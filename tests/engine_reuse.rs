//! Reuse properties of the persistent `QueryEngine`.
//!
//! The engine inverts the job-per-query lifecycle: the shared store,
//! keyword index and data grid are built once and reused by every query.
//! That reuse must be invisible: for any world,
//! any algorithm, either partitioning strategy and cluster workers in
//! {1, 2, 8}, a sequence of traced `engine.execute` calls must return the
//! kernel's results **byte-identical** to the same sequence of fresh
//! `SpqExecutor::run_dataset` jobs, with interleaved replays not
//! disturbing later queries, and each trace must be that fresh job's
//! statistics — every counter and the shuffle volume. `execute` on
//! concurrent threads (`execute_sequential` tasks on the scoped pool)
//! must reproduce the sequential results in request order for any
//! worker count, and every entry point must report the same traced
//! counters.

use proptest::prelude::*;
use spq::core::centralized::brute_force;
use spq::core::{QueryEngine, SharedDataset};
use spq::mapreduce::pool::run_tasks;
use spq::prelude::*;
use spq::text::Term;

/// `requests` served concurrently: `execute_sequential` on `workers`
/// threads, responses in request order.
fn serve_concurrently(
    engine: &QueryEngine,
    requests: &[QueryRequest],
    workers: usize,
) -> Vec<QueryResponse> {
    run_tasks(workers, requests.len(), |i| {
        engine.execute_sequential(&requests[i]).unwrap()
    })
    .unwrap()
}

/// Strategy: a small spatio-textual world plus a query stream of three
/// (keywords, radius, k) draws — radii repeat across a small class set.
#[allow(clippy::type_complexity)]
fn world() -> impl Strategy<
    Value = (
        Vec<DataObject>,
        Vec<FeatureObject>,
        Vec<(Vec<u32>, u8, u8)>, // queries: (keywords, radius class, k)
        u8,                      // grid cells per axis
    ),
> {
    let coord = 0.0f64..1.0;
    let data = proptest::collection::vec((coord.clone(), coord.clone()), 0..25);
    let features = proptest::collection::vec(
        (
            coord.clone(),
            coord,
            proptest::collection::vec(0u32..10, 1..5),
        ),
        0..35,
    );
    let queries = proptest::collection::vec(
        (proptest::collection::vec(0u32..10, 1..4), 0u8..3, 1u8..5),
        3,
    );
    (data, features, queries, 1u8..8).prop_map(|(d, f, qs, g)| {
        let data: Vec<DataObject> = d
            .into_iter()
            .enumerate()
            .map(|(i, (x, y))| DataObject::new(i as u64, Point::new(x, y)))
            .collect();
        let features: Vec<FeatureObject> = f
            .into_iter()
            .enumerate()
            .map(|(i, (x, y, w))| {
                FeatureObject::new(
                    i as u64,
                    Point::new(x, y),
                    KeywordSet::new(w.into_iter().map(Term).collect()),
                )
            })
            .collect();
        (data, features, qs, g)
    })
}

/// Three shared radius classes.
const RADIUS_CLASSES: [f64; 3] = [0.05, 0.15, 0.4];
const WORKER_COUNTS: [usize; 3] = [1, 2, 8];
const ALGORITHMS: [Algorithm; 3] = [Algorithm::PSpq, Algorithm::ESpqLen, Algorithm::ESpqSco];
const BALANCERS: [LoadBalancing; 2] = [
    LoadBalancing::UniformGrid,
    LoadBalancing::AdaptiveQuadtree { sample_size: 16 },
];

fn build_queries(specs: &[(Vec<u32>, u8, u8)]) -> Vec<SpqQuery> {
    specs
        .iter()
        .map(|(kw, r, k)| {
            SpqQuery::new(
                *k as usize,
                RADIUS_CLASSES[*r as usize % RADIUS_CLASSES.len()],
                KeywordSet::from_ids(kw.iter().copied()),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// N sequential `engine.execute` calls are byte-identical to N fresh
    /// `Executor::run_dataset` jobs, for every algorithm × partitioning ×
    /// worker count, including every counter and the shuffle volume;
    /// replaying a query after serving others returns the same bytes
    /// again.
    #[test]
    fn prop_engine_reuse_matches_fresh_jobs(
        (data, features, query_specs, g) in world()
    ) {
        let queries = build_queries(&query_specs);
        let requests: Vec<QueryRequest> = queries
            .iter()
            .map(|q| QueryRequest::new(q.clone()).with_trace())
            .collect();
        let dataset = SharedDataset::new(data, features);
        for algo in ALGORITHMS {
            for balancing in BALANCERS {
                for workers in WORKER_COUNTS {
                    let exec = SpqExecutor::new(Rect::unit())
                        .algorithm(algo)
                        .grid_size(g as u32)
                        .load_balancing(balancing)
                        .cluster(ClusterConfig::with_workers(workers));
                    let engine = QueryEngine::new(exec.clone(), dataset.clone());
                    let mut first_pass = Vec::new();
                    for (q, request) in queries.iter().zip(&requests) {
                        let served = engine.execute(request).unwrap();
                        let job = &served.trace.as_ref().expect("trace requested")[0];
                        let fresh = exec.run_dataset(&dataset, q).unwrap();
                        prop_assert_eq!(
                            &served.results, &fresh.top_k,
                            "{} workers={} balancing={:?} {}: engine diverged",
                            algo, workers, balancing, q
                        );
                        prop_assert_eq!(
                            &job.counters, &fresh.stats.counters,
                            "{} workers={} {}: counters diverged", algo, workers, q
                        );
                        prop_assert_eq!(job.shuffle_records, fresh.stats.shuffle_records);
                        prop_assert_eq!(
                            job.map_input_records(), fresh.stats.map_input_records()
                        );
                        // One reduce task per cell of the job's partition.
                        prop_assert_eq!(job.reduce_tasks.len(), fresh.stats.reduce_tasks.len());
                        first_pass.push(served.results);
                    }
                    // Replay after the whole stream: prebuilt state is not
                    // corrupted by serving other queries in between.
                    for (request, expect) in requests.iter().zip(&first_pass) {
                        prop_assert_eq!(&engine.execute(request).unwrap().results, expect);
                    }
                }
            }
        }
    }

    /// `execute` over the request slice and concurrent serving
    /// (`execute_sequential` on 1/2/8 threads) reproduce the sequential
    /// `execute_sequential` results exactly, in request order.
    #[test]
    fn prop_batch_and_serve_match_sequential(
        (data, features, query_specs, g) in world()
    ) {
        let requests: Vec<QueryRequest> = build_queries(&query_specs)
            .into_iter()
            .map(QueryRequest::new)
            .collect();
        let dataset = SharedDataset::new(data, features);
        for algo in ALGORITHMS {
            let exec = SpqExecutor::new(Rect::unit())
                .algorithm(algo)
                .grid_size(g as u32)
                .cluster(ClusterConfig::with_workers(2));
            let engine = QueryEngine::new(exec, dataset.clone());
            let sequential: Vec<_> = requests
                .iter()
                .map(|r| engine.execute_sequential(r).unwrap().results)
                .collect();
            let batch: Vec<_> = requests.iter().map(|r| engine.execute(r).unwrap()).collect();
            for (i, (b, s)) in batch.iter().zip(&sequential).enumerate() {
                prop_assert_eq!(&b.results, s, "{} request {}: batch diverged", algo, i);
            }
            for workers in WORKER_COUNTS {
                let served = serve_concurrently(&engine, &requests, workers);
                prop_assert_eq!(served.len(), requests.len());
                for (i, (r, s)) in served.iter().zip(&sequential).enumerate() {
                    prop_assert_eq!(
                        &r.results, s,
                        "{} workers={} request {}: serve diverged", algo, workers, i
                    );
                }
            }
        }
    }
}

/// Deterministic end-to-end check on a bigger-than-proptest world: a
/// hotspot-heavy stream served concurrently must equal the sequential
/// traced (job) pass for every worker count.
#[test]
fn serve_on_generated_workload_is_worker_invariant() {
    use spq::data::{QueryStream, StreamConfig, UniformGen};

    let dataset = UniformGen.generate(2_000, 42);
    let (shared, _) = dataset.to_shared_splits(8);
    let mut stream = QueryStream::new(
        dataset.vocab_size,
        StreamConfig {
            radius_classes: vec![0.03, 0.08],
            hotspot_fraction: 0.5,
            hotspots: 4,
            seed: 9,
            ..StreamConfig::default()
        },
    );
    let requests: Vec<QueryRequest> = stream
        .batch(24)
        .into_iter()
        .map(QueryRequest::new)
        .collect();
    for algo in ALGORITHMS {
        let exec = SpqExecutor::new(Rect::unit())
            .algorithm(algo)
            .grid_size(8)
            .cluster(ClusterConfig::sequential());
        let engine = QueryEngine::new(exec, shared.clone());
        let sequential: Vec<_> = requests
            .iter()
            .map(|r| engine.execute(&r.clone().with_trace()).unwrap().results)
            .collect();
        for workers in WORKER_COUNTS {
            let served = serve_concurrently(&engine, &requests, workers);
            let got: Vec<_> = served.into_iter().map(|r| r.results).collect();
            assert_eq!(got, sequential, "{algo} workers={workers}");
        }
    }
}

/// One engine path: on a local engine every entry point answers with the
/// kernel, traced or not, and those bytes are a fresh job's and the
/// centralized brute force's. Every traced response carries the fresh
/// job's counters whole — `|O| + |F|` map records, the pruned features
/// counted — and its shuffle and reducers, under either partitioning and
/// with pruning off. The same requests without a trace move no shuffle
/// and carry no trace.
#[test]
fn every_entry_point_takes_the_same_engine_path() {
    for balancing in BALANCERS {
        entry_points_agree_under(balancing);
    }
}

fn entry_points_agree_under(balancing: LoadBalancing) {
    use spq::data::{QueryStream, StreamConfig, UniformGen};

    let dataset = UniformGen.generate(2_000, 42);
    let (shared, _) = dataset.to_shared_splits(8);
    let mut stream = QueryStream::new(
        dataset.vocab_size,
        StreamConfig {
            radius_classes: vec![0.03, 0.08],
            seed: 11,
            ..StreamConfig::default()
        },
    );
    let untraced: Vec<QueryRequest> = stream.batch(6).into_iter().map(QueryRequest::new).collect();
    let requests: Vec<QueryRequest> = untraced.iter().cloned().map(|r| r.with_trace()).collect();
    let exec = SpqExecutor::new(Rect::unit())
        .grid_size(8)
        .load_balancing(balancing)
        .cluster(ClusterConfig::with_workers(2));
    let engine = QueryEngine::new(exec.clone(), shared.clone());

    type EntryPoint = fn(&QueryEngine, &[QueryRequest]) -> Vec<QueryResponse>;
    let entry_points: [(&str, EntryPoint); 4] = [
        ("execute", |engine, requests| {
            requests
                .iter()
                .map(|r| engine.execute(r).unwrap())
                .collect()
        }),
        ("execute_sequential", |engine, requests| {
            requests
                .iter()
                .map(|r| engine.execute_sequential(r).unwrap())
                .collect()
        }),
        ("execute_sequential on 2 threads", |engine, requests| {
            serve_concurrently(engine, requests, 2)
        }),
        ("AdmissionQueue::submit", |engine, requests| {
            let queue = AdmissionQueue::new(engine, AdmissionConfig::default()).unwrap();
            let tickets: Vec<Ticket> = requests
                .iter()
                .map(|r| queue.submit(r.clone()).unwrap())
                .collect();
            queue.drain();
            tickets.into_iter().map(|t| t.wait().unwrap()).collect()
        }),
    ];

    let fresh: Vec<SpqResult> = requests
        .iter()
        .map(|r| exec.run_dataset(&shared, &r.query).unwrap())
        .collect();
    for (name, run) in entry_points {
        let responses = run(&engine, &requests);
        assert_eq!(responses.len(), requests.len(), "{name}");
        for ((request, response), fresh) in requests.iter().zip(&responses).zip(&fresh) {
            let q = &request.query;
            let job = &response.trace.as_ref().expect("trace requested")[0];
            assert_eq!(
                job.map_input_records(),
                fresh.stats.map_input_records(),
                "{name}: {q}"
            );
            assert_eq!(job.map_input_records(), shared.total() as u64, "{name}");
            assert_eq!(job.counters, fresh.stats.counters, "{name}: {q}");
            assert_eq!(job.shuffle_records, fresh.stats.shuffle_records, "{name}");
            assert_eq!(
                job.reduce_tasks.len(),
                fresh.stats.reduce_tasks.len(),
                "{name}: {q}"
            );
            assert_eq!(response.results, fresh.top_k, "{name}: {q}");
            assert_eq!(
                response.results,
                brute_force(shared.data(), shared.features(), q),
                "{name}: {q}"
            );
        }
        let plain = run(&engine, &untraced);
        assert_eq!(plain.len(), responses.len(), "{name}");
        for (plain, traced) in plain.iter().zip(&responses) {
            assert_eq!(plain.results, traced.results, "{name}: plain vs traced");
            assert_eq!(plain.stats.shuffle_records, 0, "{name}");
            assert_eq!(plain.stats.shuffle_bytes, 0, "{name}");
            assert!(plain.trace.is_none(), "{name}");
        }
    }

    let unpruned_exec = exec.keyword_pruning(false);
    let unpruned = QueryEngine::new(unpruned_exec.clone(), shared.clone());
    for request in &requests {
        let fresh = unpruned_exec.run_dataset(&shared, &request.query).unwrap();
        let response = unpruned.execute(request).unwrap();
        let job = &response.trace.as_ref().expect("trace requested")[0];
        assert_eq!(job.map_input_records(), fresh.stats.map_input_records());
        assert_eq!(job.counters, fresh.stats.counters);
        assert_eq!(response.results, fresh.top_k);
    }
}
