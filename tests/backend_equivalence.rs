//! Backend equivalence: the sharded scatter/gather engine and the remote
//! TCP engine must be byte-identical to the single-store local engine.
//!
//! The sharded backend slices the data objects into per-shard stores,
//! evaluates each shard with its own build-once engine, ships serialized
//! 12-byte wire records across the shard boundary and merges. Because no
//! data object lives in two shards and every shard sees the complete
//! feature set, each shard's τ values are exact — so for **any** world,
//! shard count, algorithm and partitioning, the merged results (objects,
//! scores *and* order) must equal the single-store engine's, and the
//! typed facade must return the same bytes as the bare engine. The
//! remote backend (`remote:N`) places the same shard layout on worker
//! processes behind real localhost sockets — provisioning, queries and
//! gather records all cross the frame codec — and must answer the same
//! bytes again. The result-invariant request options (worker budgets,
//! tracing) and the executor's job settings must also change nothing.

use proptest::prelude::*;
use spq::core::centralized::brute_force;
use spq::core::service::DEFAULT_SHARDS;
use spq::prelude::*;
use spq::text::Term;

/// Strategy: a small spatio-textual world plus query draws (keywords,
/// radius class, k). Ids are sequential, hence unique — the sharded wire
/// format's documented requirement.
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

const RADIUS_CLASSES: [f64; 3] = [0.05, 0.15, 0.4];
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const REMOTE_WORKER_COUNTS: [usize; 3] = [1, 2, 4];
const ALGORITHMS: [Algorithm; 3] = [Algorithm::PSpq, Algorithm::ESpqLen, Algorithm::ESpqSco];
const BALANCERS: [LoadBalancing; 2] = [
    LoadBalancing::UniformGrid,
    LoadBalancing::AdaptiveQuadtree { sample_size: 16 },
];

fn build_requests(specs: &[(Vec<u32>, u8, u8)]) -> Vec<QueryRequest> {
    specs
        .iter()
        .map(|(kw, r, k)| {
            QueryRequest::new(SpqQuery::new(
                *k as usize,
                RADIUS_CLASSES[*r as usize % RADIUS_CLASSES.len()],
                KeywordSet::from_ids(kw.iter().copied()),
            ))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `Sharded{1,2,4,8}` answers byte-identically — results, τ scores
    /// and canonical order — to the local single-store engine, for every
    /// algorithm × partitioning, through every facade entry point.
    #[test]
    fn prop_sharded_matches_local_backend(
        (data, features, query_specs, g) in world()
    ) {
        let requests = build_requests(&query_specs);
        let dataset = SharedDataset::new(data, features);
        for algo in ALGORITHMS {
            for balancing in BALANCERS {
                let exec = SpqExecutor::new(Rect::unit())
                    .algorithm(algo)
                    .grid_size(g as u32)
                    .load_balancing(balancing)
                    .cluster(ClusterConfig::with_workers(2));
                let local = SpqService::build(exec.clone(), dataset.clone(), Backend::Local)
                    .unwrap();
                let reference: Vec<QueryResponse> = requests
                    .iter()
                    .map(|r| local.execute(r).unwrap())
                    .collect();
                // The facade's local backend returns the bare engine's
                // bytes, and — because every reducer now produces the
                // canonical top-k of its cell — those bytes equal the
                // centralized brute force even under k-boundary score ties.
                let engine = QueryEngine::new(exec.clone(), dataset.clone());
                for (request, response) in requests.iter().zip(&reference) {
                    let direct = engine.execute(request).unwrap();
                    prop_assert_eq!(
                        &response.results,
                        &direct.results,
                        "{} balancing={:?}: facade diverged from the bare engine",
                        algo, balancing
                    );
                    let oracle =
                        brute_force(dataset.data(), dataset.features(), &request.query);
                    prop_assert_eq!(
                        &response.results, &oracle,
                        "{} balancing={:?}: diverged from the canonical brute force",
                        algo, balancing
                    );
                }
                for shards in SHARD_COUNTS {
                    let sharded = SpqService::build(
                        exec.clone(),
                        dataset.clone(),
                        Backend::Sharded { shards },
                    )
                    .unwrap();
                    for (request, expect) in requests.iter().zip(&reference) {
                        let got = sharded.execute(request).unwrap();
                        // Results, scores and order — byte identity.
                        prop_assert_eq!(
                            &got.results, &expect.results,
                            "{} balancing={:?} shards={}: execute diverged",
                            algo, balancing, shards
                        );
                        prop_assert!(got.stats.shards_touched <= shards);
                    }
                    // Batch and serve reproduce execute, in order.
                    let batch = sharded.execute_batch(&requests).unwrap();
                    let served = sharded.serve_requests(&requests, 4).unwrap();
                    for i in 0..requests.len() {
                        prop_assert_eq!(&batch[i].results, &reference[i].results);
                        prop_assert_eq!(&served[i].results, &reference[i].results);
                    }
                }
                // The remote backend crosses real sockets (in-process
                // workers on ephemeral localhost ports) and must still
                // return the same bytes, through every entry point.
                for workers in REMOTE_WORKER_COUNTS {
                    let remote = SpqService::build(
                        exec.clone(),
                        dataset.clone(),
                        Backend::Remote { workers },
                    )
                    .unwrap();
                    for (request, expect) in requests.iter().zip(&reference) {
                        let got = remote.execute(request).unwrap();
                        prop_assert_eq!(
                            &got.results, &expect.results,
                            "{} balancing={:?} remote workers={}: execute diverged",
                            algo, balancing, workers
                        );
                        prop_assert!(got.stats.shards_touched <= workers);
                        prop_assert_eq!(got.stats.retries, 0);
                    }
                    let batch = remote.execute_batch(&requests).unwrap();
                    let served = remote.serve_requests(&requests, 4).unwrap();
                    for i in 0..requests.len() {
                        prop_assert_eq!(&batch[i].results, &reference[i].results);
                        prop_assert_eq!(&served[i].results, &reference[i].results);
                    }
                }
            }
        }
    }

    /// The result-invariant options — worker budget, tracing — change
    /// statistics, never bytes, on every backend; nor do the executor's
    /// job settings (pruning off, another algorithm), traced or not.
    #[test]
    fn prop_options_never_change_results(
        (data, features, query_specs, g) in world()
    ) {
        let requests = build_requests(&query_specs);
        let dataset = SharedDataset::new(data, features);
        let exec = SpqExecutor::new(Rect::unit()).grid_size(g as u32);
        let job_settings = [
            exec.clone().keyword_pruning(false),
            exec.clone().algorithm(Algorithm::PSpq),
        ];
        for backend in [
            Backend::Local,
            Backend::Sharded { shards: 3 },
            Backend::Remote { workers: 2 },
        ] {
            let service = SpqService::build(exec.clone(), dataset.clone(), backend).unwrap();
            let variants: Vec<SpqService> = job_settings
                .iter()
                .map(|e| SpqService::build(e.clone(), dataset.clone(), backend).unwrap())
                .collect();
            for request in &requests {
                let plain = service.execute(request).unwrap();
                for decorated in [
                    request.clone().with_workers(2),
                    request.clone().with_trace(),
                    request.clone().with_workers(5).with_trace(),
                ] {
                    let got = service.execute(&decorated).unwrap();
                    prop_assert_eq!(
                        &got.results, &plain.results,
                        "{}: options changed result bytes", backend
                    );
                }
                for (variant, settings) in variants.iter().zip(&job_settings) {
                    for request in [request.clone(), request.clone().with_trace()] {
                        let got = variant.execute(&request).unwrap();
                        prop_assert_eq!(
                            &got.results, &plain.results,
                            "{}: job settings changed result bytes", backend
                        );
                        prop_assert_eq!(got.stats.algorithm, settings.algorithm_choice());
                    }
                }
            }
        }
    }

    /// `execute_sequential` is `execute` at worker budget 1 and nothing
    /// else: the two return the same bytes and the same deterministic
    /// statistics — which are also the bytes `execute` returns at the
    /// engine's own width — on every backend, traced and untraced.
    #[test]
    fn prop_sequential_entry_point_is_budget_one(
        (data, features, query_specs, g) in world()
    ) {
        let requests = build_requests(&query_specs);
        let dataset = SharedDataset::new(data, features);
        let exec = SpqExecutor::new(Rect::unit())
            .grid_size(g as u32)
            .cluster(ClusterConfig::with_workers(3));
        for backend in [
            Backend::Local,
            Backend::Sharded { shards: 3 },
            Backend::Remote { workers: 2 },
        ] {
            let service = SpqService::build(exec.clone(), dataset.clone(), backend).unwrap();
            for request in &requests {
                for request in [request.clone(), request.clone().with_trace()] {
                    let wide = service.execute(&request).unwrap();
                    let sequential = service.execute_sequential(&request).unwrap();
                    let budget_one = service.execute(&request.clone().with_workers(1)).unwrap();
                    prop_assert_eq!(&sequential.results, &wide.results, "{}", backend);
                    prop_assert_eq!(&budget_one.results, &wide.results, "{}", backend);
                    let counts = |r: &QueryResponse| {
                        let jobs: Vec<(u64, u64)> = r
                            .trace
                            .iter()
                            .flatten()
                            .map(|job| (job.shuffle_records, job.map_input_records()))
                            .collect();
                        (r.stats.shards_touched, r.stats.shuffle_records, r.stats.shuffle_bytes, jobs)
                    };
                    prop_assert_eq!(counts(&sequential), counts(&budget_one), "{}", backend);
                    prop_assert_eq!(counts(&sequential), counts(&wide), "{}", backend);
                }
            }
        }
    }
}

#[test]
fn facade_surfaces_typed_errors() {
    let dataset = SharedDataset::new(
        vec![DataObject::new(1, Point::new(0.5, 0.5))],
        vec![FeatureObject::new(
            1,
            Point::new(0.5, 0.6),
            KeywordSet::from_ids([0]),
        )],
    );
    let exec = SpqExecutor::new(Rect::unit()).grid_size(4);
    for backend in [
        Backend::Local,
        Backend::Sharded { shards: 2 },
        Backend::Remote { workers: 2 },
    ] {
        let service = SpqService::build(exec.clone(), dataset.clone(), backend).unwrap();
        let mut bad = QueryRequest::new(SpqQuery::new(1, 0.2, KeywordSet::from_ids([0])));
        bad.query.radius = f64::NAN;
        assert!(matches!(
            service.execute(&bad),
            Err(SpqError::InvalidQuery { .. })
        ));
        let zero_budget =
            QueryRequest::new(SpqQuery::new(1, 0.2, KeywordSet::from_ids([0]))).with_workers(0);
        assert!(service.execute(&zero_budget).is_err());
        // A trace is the query's one job on every backend, run through
        // the executor outside any `QueryEngine`: no backend counts a plan.
        let traced =
            QueryRequest::new(SpqQuery::new(1, 0.2, KeywordSet::from_ids([0]))).with_trace();
        assert_eq!(service.execute(&traced).unwrap().trace.unwrap().len(), 1);
        assert_eq!(service.metrics().plan_cache_misses, 0, "{backend}");
    }
    // Zero shards / zero workers are build-time config errors.
    assert!(matches!(
        SpqService::build(
            exec.clone(),
            dataset.clone(),
            Backend::Sharded { shards: 0 }
        ),
        Err(SpqError::InvalidConfig { .. })
    ));
    assert!(matches!(
        SpqService::build(exec, dataset, Backend::Remote { workers: 0 }),
        Err(SpqError::InvalidConfig { .. })
    ));
}

#[test]
fn stats_reflect_backend_shape() {
    let dataset = SharedDataset::new(
        (0..40)
            .map(|i| DataObject::new(i, Point::new(i as f64 / 40.0, 0.5)))
            .collect(),
        (0..40)
            .map(|i| {
                FeatureObject::new(
                    i,
                    Point::new(i as f64 / 40.0, 0.52),
                    KeywordSet::from_ids([(i % 5) as u32]),
                )
            })
            .collect(),
    );
    let exec = SpqExecutor::new(Rect::unit()).grid_size(4);
    let request = QueryRequest::new(SpqQuery::new(5, 0.1, KeywordSet::from_ids([0, 1])));

    let local = SpqService::build(exec.clone(), dataset.clone(), Backend::Local).unwrap();
    let response = local.execute(&request).unwrap();
    assert_eq!(response.stats.shards_touched, 1);
    assert_eq!(response.stats.keyword_terms_probed, 2);
    assert_eq!(response.stats.keyword_terms_matched, 2);
    // The local shuffle exists only when the request asked for a job: a
    // plain request is answered by the kernel and moves nothing.
    assert_eq!(response.stats.shuffle_records, 0);
    assert_eq!(response.stats.shuffle_bytes, 0);
    assert!(response.trace.is_none());
    let traced = local.execute(&request.clone().with_trace()).unwrap();
    assert_eq!(traced.results, response.results);
    assert!(traced.stats.shuffle_records > 0);
    assert!(traced.stats.shuffle_bytes >= traced.stats.shuffle_records);
    assert_eq!(traced.trace.unwrap().len(), 1);

    let sharded = SpqService::build(
        exec,
        dataset.clone(),
        Backend::Sharded {
            shards: DEFAULT_SHARDS,
        },
    )
    .unwrap();
    let response = sharded.execute(&request).unwrap();
    assert_eq!(response.stats.shards_touched, DEFAULT_SHARDS);
    // The gather ships 12-byte wire records.
    assert_eq!(
        response.stats.shuffle_bytes,
        response.stats.shuffle_records * 12
    );
    // Tracing attaches the query's one JobStats, whatever the shard count.
    let traced = sharded.execute(&request.clone().with_trace()).unwrap();
    assert_eq!(traced.trace.unwrap().len(), 1);

    // The remote backend reports the same gather shape — 12-byte wire
    // records, one JobStats for the traced query — plus a zero retry
    // count on a healthy fleet.
    let remote = SpqService::build(
        SpqExecutor::new(Rect::unit()).grid_size(4),
        dataset,
        Backend::Remote { workers: 3 },
    )
    .unwrap();
    assert_eq!(remote.backend(), Backend::Remote { workers: 3 });
    let response = remote.execute(&request).unwrap();
    assert_eq!(response.stats.shards_touched, 3);
    assert_eq!(
        response.stats.shuffle_bytes,
        response.stats.shuffle_records * 12
    );
    assert_eq!(response.stats.retries, 0);
    let traced = remote.execute(&request.with_trace()).unwrap();
    assert_eq!(traced.trace.unwrap().len(), 1);
}

/// A trace never reaches a kernel or a worker: a traced `local`,
/// `sharded:2` or `remote:2` request keeps its kernel answer — the same
/// result bytes, and on `remote:2` the same frame bytes, as the untraced
/// request — and its trace is the one job a fresh `run_dataset` runs for
/// the query.
#[test]
fn traced_remote_request_carries_the_workers_job_stats() {
    let dataset = SharedDataset::new(
        (0..40)
            .map(|i| DataObject::new(i, Point::new(i as f64 / 40.0, 0.5)))
            .collect(),
        (0..40)
            .map(|i| {
                FeatureObject::new(
                    i,
                    Point::new(i as f64 / 40.0, 0.52),
                    KeywordSet::from_ids([(i % 5) as u32]),
                )
            })
            .collect(),
    );
    let exec = SpqExecutor::new(Rect::unit()).grid_size(4);
    let request = QueryRequest::new(SpqQuery::new(5, 0.1, KeywordSet::from_ids([0, 1])));
    let fresh = exec.run_dataset(&dataset, &request.query).unwrap();
    assert!(fresh.stats.shuffle_records > 0);
    for (backend, shards) in [
        (Backend::Local, 1),
        (Backend::Sharded { shards: 2 }, 2),
        (Backend::Remote { workers: 2 }, 2),
    ] {
        let service = SpqService::build(exec.clone(), dataset.clone(), backend).unwrap();
        let before = service.remote_traffic_bytes();
        let plain = service.execute(&request).unwrap();
        let between = service.remote_traffic_bytes();
        let traced = service.execute(&request.clone().with_trace()).unwrap();
        let after = service.remote_traffic_bytes();
        assert!(plain.trace.is_none(), "{backend}");
        assert_eq!(plain.stats.shards_touched, shards, "{backend}");
        assert_eq!(traced.stats.shards_touched, shards, "{backend}");
        assert_eq!(traced.results, plain.results, "{backend}");
        assert_eq!(traced.results, fresh.top_k, "{backend}");
        let [job] = traced.trace.unwrap().try_into().unwrap();
        assert_eq!(
            job.shuffle_records, fresh.stats.shuffle_records,
            "{backend}"
        );
        assert_eq!(
            job.map_input_records(),
            fresh.stats.map_input_records(),
            "{backend}"
        );
        assert_eq!(job.counters, fresh.stats.counters, "{backend}");
        assert_eq!(
            job.reduce_tasks.len(),
            fresh.stats.reduce_tasks.len(),
            "{backend}"
        );
        if let Backend::Remote { .. } = backend {
            let [before, between, after] = [before, between, after].map(Option::unwrap);
            assert!(between > before);
            assert_eq!(
                after - between,
                between - before,
                "a trace reached a worker"
            );
        }
    }
}

/// Every answer holds exactly its entries (`len() == capacity() <= k`):
/// the job's merge sizes its result to fit, so a caller that keeps answers
/// keeps k entries each, not every cell's or shard's list. The local
/// engine's answer, traced or not, is the kernel's top-k list, allocated
/// at k, so it is checked on a query that fills k.
#[test]
fn answers_hold_only_their_entries() {
    let data: Vec<DataObject> = (0..400)
        .map(|i| {
            DataObject::new(
                i,
                Point::new((i % 20) as f64 / 20.0, (i / 20) as f64 / 20.0),
            )
        })
        .collect();
    let features: Vec<FeatureObject> = (0..300u64)
        .map(|i| {
            let p = Point::new((i * 37 % 300) as f64 / 300.0, (i * 91 % 300) as f64 / 300.0);
            // Term 7 is rare: a query on it fills fewer than k slots.
            let rare = if i % 150 == 0 { 7 } else { 6 };
            FeatureObject::new(i, p, KeywordSet::from_ids([(i % 5) as u32, rare]))
        })
        .collect();
    let dataset = SharedDataset::new(data, features);
    let exec = SpqExecutor::new(Rect::unit()).grid_size(6);
    let full = SpqQuery::new(10, 0.1, KeywordSet::from_ids([0, 1, 2]));
    let sparse = SpqQuery::new(30, 0.02, KeywordSet::from_ids([7]));
    let holds_only_its_entries = |results: &Vec<RankedObject>, k: usize| {
        results.len() == results.capacity() && results.len() <= k
    };

    for algorithm in Algorithm::ALL {
        let exec = exec.clone().algorithm(algorithm);
        for query in [&full, &sparse] {
            let top_k = exec.run_dataset(&dataset, query).unwrap().top_k;
            assert!(holds_only_its_entries(&top_k, query.k), "{algorithm}");
        }
    }
    let full_len = exec.run_dataset(&dataset, &full).unwrap().top_k.len();
    let sparse_len = exec.run_dataset(&dataset, &sparse).unwrap().top_k.len();
    assert_eq!(full_len, full.k);
    assert!(0 < sparse_len && sparse_len < sparse.k);

    for backend in [
        Backend::Local,
        Backend::Sharded { shards: 2 },
        Backend::Remote { workers: 2 },
    ] {
        let service = SpqService::build(exec.clone(), dataset.clone(), backend).unwrap();
        for query in [&full, &sparse] {
            let request = QueryRequest::new(query.clone());
            let traced = service.execute(&request.clone().with_trace()).unwrap();
            let plain = service.execute(&request).unwrap();
            if backend != Backend::Local || plain.results.len() == query.k {
                for answer in [&traced, &plain] {
                    assert!(
                        holds_only_its_entries(&answer.results, query.k),
                        "{backend}"
                    );
                }
            }
        }
    }
}
