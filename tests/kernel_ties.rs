//! The serving kernel's early stop under ties: kernel ≡ job ≡ centralized.
//!
//! Every request is answered by the engine's direct kernel, which
//! visits candidate features in descending score order against one
//! global `τ` and stops at the first candidate scoring *strictly* below
//! it. The MapReduce job (a fresh `run_dataset`, which is also what a
//! traced request carries as its trace) is the oracle beside it. Both
//! must return the bytes of `brute_force` — in particular when several
//! data objects tie
//! at the k-th place, where stopping at `== τ` would keep whichever tied
//! object was reached first instead of the one with the smallest id.
//!
//! The worlds live on a coarse lattice with a four-term vocabulary, so
//! co-located objects, features at distance exactly `r` and equal scores
//! at the k-th place are the common case rather than the rare one.
//!
//! The same worlds pin the kernel's coverage argument. The kernel scans
//! one grid built before any radius is known, `⌈√|O|⌉` cells per axis over
//! the bounds; a feature reaches its own cell plus every cell within
//! MINDIST `r`. So the worlds also draw data counts whose grid lines fall
//! on the lattice (4, 16 and 64 objects: 2, 4 and 8 cells per axis), which
//! puts objects on cell edges and corners exactly `r` — one step, two
//! steps, one diagonal — from features across them. The lattice spans the
//! closed unit square, so objects also sit on the outer bounds. The radii
//! run from `0` to wider than the space, and every query is asked under
//! all three similarities.
//!
//! The kernel tests its stop once per score class — candidates sharing
//! `(|q.W ∩ f.W|, |f.W|)` — and distinct classes can tie on score. So a
//! second family of worlds draws every feature from a few classes that
//! tie against the query `{0, 1, 2}` under one similarity, padded with
//! filler terms up to `|f.W| = 11`.
//!
//! The kernel numbers each feature slice by `(|f.W|, store order)` and
//! cuts a class where a length run ends. A third family stores its
//! features longest first, so that numbering reverses store order across
//! lengths, with lengths 0–12: every similarity's tied classes beside
//! classes drawn at random, so tied runs sit on both sides of other
//! runs. The local engine and `sharded:1`–`sharded:3`, whose slices each
//! number their own features, must all return `brute_force`'s bytes.

use proptest::prelude::*;
use spq::core::centralized::brute_force;
use spq::core::{QueryEngine, ShardedEngine, SharedDataset};
use spq::prelude::*;
use spq::text::SetSimilarity;

/// Radii on and off the lattice pitch of 1/8: co-location only, one
/// step, two steps, a radius no lattice distance equals, one diagonal
/// step, and a radius wider than the unit square's diagonal.
const RADII: [f64; 6] = [0.0, 0.125, 0.25, 0.3, std::f64::consts::SQRT_2 / 8.0, 2.0];
const BALANCERS: [LoadBalancing; 2] = [
    LoadBalancing::UniformGrid,
    LoadBalancing::AdaptiveQuadtree { sample_size: 16 },
];
const SIMILARITIES: [SetSimilarity; 3] = [
    SetSimilarity::Jaccard,
    SetSimilarity::Dice,
    SetSimilarity::Overlap,
];
/// Data counts whose kernel grid (`⌈√|O|⌉` per axis) has its lines on the
/// lattice; the fourth draw keeps the random count.
const ALIGNED_COUNTS: [usize; 3] = [4, 16, 64];

/// Strategy: 0–64 data objects and 0–60 features on the `i/8` lattice
/// over a four-term vocabulary, four (keywords, radius class, k) query
/// draws and a grid size.
#[allow(clippy::type_complexity)]
fn lattice_world() -> impl Strategy<
    Value = (
        Vec<DataObject>,
        Vec<FeatureObject>,
        Vec<(Vec<u32>, usize, usize)>,
        u32,
    ),
> {
    let data = (
        proptest::collection::vec((0u8..=8, 0u8..=8), 64),
        0usize..65,
        0..=ALIGNED_COUNTS.len(),
    );
    let features = proptest::collection::vec(
        (0u8..=8, 0u8..=8, proptest::collection::vec(0u32..4, 1..4)),
        0..61,
    );
    let queries = proptest::collection::vec(
        (
            proptest::collection::vec(0u32..4, 1..4),
            0usize..RADII.len(),
            1usize..=7,
        ),
        4,
    );
    (data, features, queries, 1u32..8).prop_map(|((d, random, class), f, queries, grid)| {
        let at = |x: u8, y: u8| Point::new(x as f64 / 8.0, y as f64 / 8.0);
        let count = ALIGNED_COUNTS.get(class).copied().unwrap_or(random);
        let data = d
            .into_iter()
            .take(count)
            .enumerate()
            .map(|(i, (x, y))| DataObject::new(i as u64, at(x, y)))
            .collect();
        let features = f
            .into_iter()
            .enumerate()
            .map(|(i, (x, y, w))| FeatureObject::new(i as u64, at(x, y), KeywordSet::from_ids(w)))
            .collect();
        (data, features, queries, grid)
    })
}

/// Distinct `(|q.W ∩ f.W|, |f.W|)` classes that score the same against a
/// three-keyword query, per similarity — Jaccard (1, 4) and (2, 11) are
/// both 1/6, Dice (1, 1) and (2, 5) both 1/2, Overlap (1, 1), (2, 2) and
/// (3, 5) all 1 — followed by classes scoring above or below the tie. The
/// last one shares more keywords than a class that outscores it, so
/// walking classes by intersection size instead of by score shows.
const CLASS_TIES: [(SetSimilarity, &[(usize, usize)]); 3] = [
    (
        SetSimilarity::Jaccard,
        &[(1, 4), (2, 11), (3, 3), (1, 11), (1, 2)],
    ),
    (
        SetSimilarity::Dice,
        &[(1, 1), (2, 5), (3, 3), (1, 11), (2, 11)],
    ),
    (
        SetSimilarity::Overlap,
        &[(1, 1), (2, 2), (3, 5), (3, 3), (1, 11), (2, 5)],
    ),
];
/// Terms a class-tied feature pads its keywords with; the query's are
/// 0, 1 and 2, so the vocabulary has 19 terms, enough for `|f.W| = 11`.
const FILLERS: u32 = 16;

/// Strategy: one similarity of [`CLASS_TIES`]; 0–64 data objects and 0–60
/// features on the `i/8` lattice, each feature drawn from the similarity's
/// classes with its shared and filler terms rotated; four (radius class,
/// k) draws for the query `{0, 1, 2}`; a grid size.
#[allow(clippy::type_complexity)]
fn class_tied_world() -> impl Strategy<
    Value = (
        SetSimilarity,
        Vec<DataObject>,
        Vec<FeatureObject>,
        Vec<(usize, usize)>,
        u32,
    ),
> {
    let data = (
        proptest::collection::vec((0u8..=8, 0u8..=8), 64),
        0usize..65,
        0..=ALIGNED_COUNTS.len(),
    );
    let features =
        proptest::collection::vec((0u8..=8, 0u8..=8, 0usize..6, 0u32..3, 0u32..FILLERS), 0..61);
    let queries = proptest::collection::vec((0usize..RADII.len(), 1usize..=7), 4);
    (0..CLASS_TIES.len(), data, features, queries, 1u32..8).prop_map(
        |(which, (d, random, class), f, queries, grid)| {
            let (similarity, classes) = CLASS_TIES[which];
            let at = |x: u8, y: u8| Point::new(x as f64 / 8.0, y as f64 / 8.0);
            let count = ALIGNED_COUNTS.get(class).copied().unwrap_or(random);
            let data = d
                .into_iter()
                .take(count)
                .enumerate()
                .map(|(i, (x, y))| DataObject::new(i as u64, at(x, y)))
                .collect();
            let features = f
                .into_iter()
                .enumerate()
                .map(|(i, (x, y, pick, shared, filler))| {
                    let (inter, len) = classes[pick % classes.len()];
                    let shared = (0..inter as u32).map(|t| (shared + t) % 3);
                    let fillers = (0..(len - inter) as u32).map(|t| 3 + (filler + t) % FILLERS);
                    let keywords = KeywordSet::from_ids(shared.chain(fillers));
                    FeatureObject::new(i as u64, at(x, y), keywords)
                })
                .collect();
            (similarity, data, features, queries, grid)
        },
    )
}

/// The longest feature a length-run world draws.
const MAX_LEN: usize = 12;

/// Strategy: 0–64 data objects and 0–60 features on the `i/8` lattice;
/// each feature is one of every similarity's tied [`CLASS_TIES`] classes
/// or a random `(|q.W ∩ f.W|, |f.W|)` with `|f.W|` in 0–12, with its
/// shared and filler terms rotated. The features are stored longest
/// first (ids in that order), draw order kept within a length. Four
/// (radius class, k) draws for the query `{0, 1, 2}`; a grid size.
#[allow(clippy::type_complexity)]
fn length_run_world() -> impl Strategy<
    Value = (
        Vec<DataObject>,
        Vec<FeatureObject>,
        Vec<(usize, usize)>,
        u32,
    ),
> {
    let data = (
        proptest::collection::vec((0u8..=8, 0u8..=8), 64),
        0usize..65,
        0..=ALIGNED_COUNTS.len(),
    );
    let tied: Vec<(usize, usize)> = CLASS_TIES
        .iter()
        .flat_map(|(_, classes)| classes.iter().copied())
        .collect();
    // Two draws in three a tied class, else a random one.
    let class = (0u8..3, 0..tied.len(), 0..=MAX_LEN, 0usize..=3).prop_map(
        move |(kind, pick, len, inter)| match kind {
            0 => (inter.min(len), len),
            _ => tied[pick],
        },
    );
    let features =
        proptest::collection::vec((0u8..=8, 0u8..=8, class, 0u32..3, 0u32..FILLERS), 0..61);
    let queries = proptest::collection::vec((0usize..RADII.len(), 1usize..=7), 4);
    (data, features, queries, 1u32..8).prop_map(|((d, random, class), f, queries, grid)| {
        let at = |x: u8, y: u8| Point::new(x as f64 / 8.0, y as f64 / 8.0);
        let count = ALIGNED_COUNTS.get(class).copied().unwrap_or(random);
        let data = d
            .into_iter()
            .take(count)
            .enumerate()
            .map(|(i, (x, y))| DataObject::new(i as u64, at(x, y)))
            .collect();
        let mut drawn: Vec<(Point, KeywordSet)> = f
            .into_iter()
            .map(|(x, y, (inter, len), shared, filler)| {
                let shared = (0..inter as u32).map(|t| (shared + t) % 3);
                let fillers = (0..(len - inter) as u32).map(|t| 3 + (filler + t) % FILLERS);
                (at(x, y), KeywordSet::from_ids(shared.chain(fillers)))
            })
            .collect();
        drawn.sort_by_key(|(_, keywords)| std::cmp::Reverse(keywords.len()));
        let features = drawn
            .into_iter()
            .enumerate()
            .map(|(i, (location, keywords))| FeatureObject::new(i as u64, location, keywords))
            .collect();
        (data, features, queries, grid)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `execute(req)` and `execute(req.with_trace())` (the kernel, the
    /// second with the job as its trace), a fresh `run_dataset` job and
    /// `brute_force` agree byte for byte on tie-heavy worlds, over both
    /// partition shapes and all three similarities; only the untraced
    /// answer moved no shuffle record.
    #[test]
    fn prop_kernel_job_and_brute_force_agree_under_ties(
        (data, features, query_specs, grid) in lattice_world()
    ) {
        let dataset = SharedDataset::new(data, features);
        for balancing in BALANCERS {
            let exec = SpqExecutor::new(Rect::unit())
                .grid_size(grid)
                .load_balancing(balancing)
                .cluster(ClusterConfig::sequential());
            let engine = QueryEngine::new(exec.clone(), dataset.clone());
            for (keywords, radius, k) in &query_specs {
                for similarity in SIMILARITIES {
                    let query = SpqQuery::with_similarity(
                        *k,
                        RADII[*radius],
                        KeywordSet::from_ids(keywords.iter().copied()),
                        similarity,
                    );
                    let expect = brute_force(dataset.data(), dataset.features(), &query);
                    let fresh = exec.run_dataset(&dataset, &query).unwrap();
                    let request = QueryRequest::new(query.clone());
                    let kernel = engine.execute(&request).unwrap();
                    let traced = engine.execute(&request.with_trace()).unwrap();
                    prop_assert_eq!(&kernel.results, &expect, "kernel, {:?} {}", balancing, query);
                    prop_assert_eq!(&fresh.top_k, &expect, "fresh job, {:?} {}", balancing, query);
                    prop_assert_eq!(&traced.results, &expect, "traced, {:?} {}", balancing, query);
                    prop_assert_eq!(kernel.stats.shuffle_records, 0);
                    prop_assert!(kernel.trace.is_none());
                    // The traced job shuffles at least every data object.
                    prop_assert!(traced.stats.shuffle_records >= dataset.data().len() as u64);
                    prop_assert_eq!(traced.trace.map(|t| t.len()), Some(1));
                }
            }
        }
    }

    /// Ties *between* score classes: the kernel walks classes that tie on
    /// score as one run, in whatever order its sort leaves them, and its
    /// answer is still a fresh job's and `brute_force`'s, byte for byte.
    #[test]
    fn prop_kernel_agrees_when_distinct_classes_tie(
        (similarity, data, features, query_specs, grid) in class_tied_world()
    ) {
        let dataset = SharedDataset::new(data, features);
        let exec = SpqExecutor::new(Rect::unit())
            .grid_size(grid)
            .cluster(ClusterConfig::sequential());
        let engine = QueryEngine::new(exec.clone(), dataset.clone());
        for (radius, k) in &query_specs {
            let query = SpqQuery::with_similarity(
                *k,
                RADII[*radius],
                KeywordSet::from_ids([0, 1, 2]),
                similarity,
            );
            let expect = brute_force(dataset.data(), dataset.features(), &query);
            let kernel = engine.execute(&QueryRequest::new(query.clone())).unwrap();
            let fresh = exec.run_dataset(&dataset, &query).unwrap();
            prop_assert_eq!(&kernel.results, &expect, "kernel, {}", query);
            prop_assert_eq!(&fresh.top_k, &expect, "job, {}", query);
        }
    }

    /// Length runs: on worlds stored longest first, with tied classes on
    /// both sides of other lengths' runs, the local kernel and every
    /// shard count's gather return `brute_force`'s bytes under all three
    /// similarities.
    #[test]
    fn prop_kernel_agrees_across_length_runs(
        (data, features, query_specs, grid) in length_run_world()
    ) {
        let dataset = SharedDataset::new(data, features);
        let exec = SpqExecutor::new(Rect::unit())
            .grid_size(grid)
            .cluster(ClusterConfig::sequential());
        let local = QueryEngine::new(exec.clone(), dataset.clone());
        let sharded: Vec<ShardedEngine> = (1..=3)
            .map(|n| ShardedEngine::new(exec.clone(), dataset.clone(), n).unwrap())
            .collect();
        for (radius, k) in &query_specs {
            for similarity in SIMILARITIES {
                let query = SpqQuery::with_similarity(
                    *k,
                    RADII[*radius],
                    KeywordSet::from_ids([0, 1, 2]),
                    similarity,
                );
                let expect = brute_force(dataset.data(), dataset.features(), &query);
                let request = QueryRequest::new(query.clone());
                let got = local.execute(&request).unwrap();
                prop_assert_eq!(&got.results, &expect, "local, {}", query);
                for engine in &sharded {
                    let got = engine.execute(&request).unwrap();
                    prop_assert_eq!(
                        &got.results,
                        &expect,
                        "sharded:{}, {}",
                        engine.num_shards(),
                        query
                    );
                }
            }
        }
    }
}
