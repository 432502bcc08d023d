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
//! pruning override) must also change nothing.

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

    /// The result-invariant options — worker budget, pruning override,
    /// tracing — change statistics, never bytes, on both backends.
    #[test]
    fn prop_options_never_change_results(
        (data, features, query_specs, g) in world()
    ) {
        let requests = build_requests(&query_specs);
        let dataset = SharedDataset::new(data, features);
        let exec = SpqExecutor::new(Rect::unit()).grid_size(g as u32);
        for backend in [
            Backend::Local,
            Backend::Sharded { shards: 3 },
            Backend::Remote { workers: 2 },
        ] {
            let service = SpqService::build(exec.clone(), dataset.clone(), backend).unwrap();
            for request in &requests {
                let plain = service.execute(request).unwrap();
                for decorated in [
                    request.clone().with_workers(2),
                    request.clone().with_keyword_pruning(false),
                    request.clone().with_trace(),
                    request.clone().with_workers(5).with_trace(),
                ] {
                    let got = service.execute(&decorated).unwrap();
                    prop_assert_eq!(
                        &got.results, &plain.results,
                        "{}: options changed result bytes", backend
                    );
                }
                // Algorithm override steers to that algorithm's (equal
                // by correctness, not byte-compared) result path; here we
                // just confirm it executes and reports the override.
                let overridden = service
                    .execute(&request.clone().with_algorithm(Algorithm::PSpq))
                    .unwrap();
                prop_assert_eq!(overridden.stats.algorithm, Algorithm::PSpq);
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
    // A plain request is answered by the kernel, which builds no plan.
    assert!(response.stats.plan_cache_hit);
    // The local shuffle exists only when the request asked for a job: a
    // plain request is answered by the kernel and moves nothing.
    assert_eq!(response.stats.shuffle_records, 0);
    assert_eq!(response.stats.shuffle_bytes, 0);
    assert!(response.trace.is_none());
    let traced = local.execute(&request.clone().with_trace()).unwrap();
    assert!(
        !traced.stats.plan_cache_hit,
        "the first job builds the plan"
    );
    assert!(
        local
            .execute(&request.clone().with_trace())
            .unwrap()
            .stats
            .plan_cache_hit
    );
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
    assert!(sharded.execute(&request).unwrap().stats.plan_cache_hit);
    // Tracing attaches one JobStats per touched shard.
    let traced = sharded.execute(&request.clone().with_trace()).unwrap();
    assert_eq!(traced.trace.unwrap().len(), DEFAULT_SHARDS);

    // The remote backend reports the same gather shape — 12-byte wire
    // records, one JobStats per touched worker — plus a zero retry count
    // on a healthy fleet.
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
    assert!(remote.execute(&request).unwrap().stats.plan_cache_hit);
    let traced = remote.execute(&request.with_trace()).unwrap();
    assert_eq!(traced.trace.unwrap().len(), 3);
}

/// The trace flag crosses the shard wire: a traced `remote:2` request is
/// answered by a *job* on each worker — same bytes as the untraced
/// kernel answer, and per-shard `JobStats` that are the shard's real
/// shuffle, equal to what `sharded:2` (the same slicing, in-process)
/// reports.
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
    let sharded = SpqService::build(
        exec.clone(),
        dataset.clone(),
        Backend::Sharded { shards: 2 },
    )
    .unwrap();
    let remote = SpqService::build(exec, dataset, Backend::Remote { workers: 2 }).unwrap();

    let plain = remote.execute(&request).unwrap();
    assert!(plain.trace.is_none());
    let traced = remote.execute(&request.clone().with_trace()).unwrap();
    assert_eq!(traced.results, plain.results);
    let remote_trace = traced.trace.unwrap();
    let sharded_trace = sharded
        .execute(&request.with_trace())
        .unwrap()
        .trace
        .unwrap();
    assert_eq!(remote_trace.len(), 2);
    for (shard, (over_wire, in_process)) in remote_trace.iter().zip(&sharded_trace).enumerate() {
        assert!(over_wire.shuffle_records > 0, "shard {shard} ran no job");
        assert_eq!(over_wire.shuffle_records, in_process.shuffle_records);
        assert_eq!(
            over_wire.map_input_records(),
            in_process.map_input_records()
        );
    }
}
