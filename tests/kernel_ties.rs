//! The serving kernel's early stop under ties: kernel ≡ job ≡ centralized.
//!
//! An untraced request is answered by the engine's direct kernel, which
//! visits candidate features in descending score order against one
//! global `τ` and stops at the first candidate scoring *strictly* below
//! it. A traced request runs the MapReduce job. Both must return the
//! bytes of `brute_force` — in particular when several data objects tie
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

use proptest::prelude::*;
use spq::core::centralized::brute_force;
use spq::core::{QueryEngine, SharedDataset};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `execute(req)` (kernel), `execute(req.with_trace())` (the engine's
    /// job), a fresh `run_dataset` job and `brute_force` agree byte for
    /// byte on tie-heavy worlds, over both partition shapes and all three
    /// similarities; only the untraced answer moved no shuffle record.
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
                    let job = engine.execute(&request.with_trace()).unwrap();
                    prop_assert_eq!(&kernel.results, &expect, "kernel, {:?} {}", balancing, query);
                    prop_assert_eq!(&fresh.top_k, &expect, "fresh job, {:?} {}", balancing, query);
                    prop_assert_eq!(&job.results, &expect, "job, {:?} {}", balancing, query);
                    prop_assert_eq!(kernel.stats.shuffle_records, 0);
                    prop_assert!(kernel.trace.is_none());
                    // The job shuffles at least every data object.
                    prop_assert!(job.stats.shuffle_records >= dataset.data().len() as u64);
                    prop_assert_eq!(job.trace.map(|t| t.len()), Some(1));
                }
            }
        }
    }
}
