//! Degenerate and adversarial inputs: the distributed pipeline must
//! behave like the oracle on all of them.

use proptest::prelude::*;
use spq::core::{centralized, validate};
use spq::prelude::*;
use spq::text::Score;

const ALGOS: [Algorithm; 3] = [Algorithm::PSpq, Algorithm::ESpqLen, Algorithm::ESpqSco];

fn run(
    algo: Algorithm,
    grid: u32,
    data: &[DataObject],
    features: &[FeatureObject],
    query: &SpqQuery,
) -> Vec<RankedObject> {
    SpqExecutor::new(Rect::unit())
        .algorithm(algo)
        .grid_size(grid)
        .run(&[data.to_vec()], &[features.to_vec()], query)
        .unwrap()
        .top_k
}

#[test]
fn empty_data_set() {
    let features = vec![FeatureObject::new(
        1,
        Point::new(0.5, 0.5),
        KeywordSet::from_ids([0]),
    )];
    let q = SpqQuery::new(3, 0.2, KeywordSet::from_ids([0]));
    for algo in ALGOS {
        assert!(run(algo, 4, &[], &features, &q).is_empty(), "{algo}");
    }
}

#[test]
fn empty_feature_set() {
    let data = vec![DataObject::new(1, Point::new(0.5, 0.5))];
    let q = SpqQuery::new(3, 0.2, KeywordSet::from_ids([0]));
    for algo in ALGOS {
        assert!(run(algo, 4, &data, &[], &q).is_empty(), "{algo}");
    }
}

#[test]
fn no_feature_matches_keywords() {
    let data = vec![DataObject::new(1, Point::new(0.5, 0.5))];
    let features = vec![FeatureObject::new(
        1,
        Point::new(0.5, 0.51),
        KeywordSet::from_ids([7]),
    )];
    let q = SpqQuery::new(1, 0.2, KeywordSet::from_ids([0]));
    for algo in ALGOS {
        assert!(run(algo, 4, &data, &features, &q).is_empty(), "{algo}");
    }
}

#[test]
fn k_larger_than_any_possible_result() {
    let data = vec![
        DataObject::new(1, Point::new(0.2, 0.2)),
        DataObject::new(2, Point::new(0.8, 0.8)),
    ];
    let features = vec![FeatureObject::new(
        1,
        Point::new(0.2, 0.21),
        KeywordSet::from_ids([0]),
    )];
    let q = SpqQuery::new(100, 0.05, KeywordSet::from_ids([0]));
    for algo in ALGOS {
        let got = run(algo, 4, &data, &features, &q);
        assert_eq!(got.len(), 1, "{algo}");
        assert_eq!(got[0].object, 1, "{algo}");
    }
}

#[test]
fn zero_radius_requires_exact_colocation() {
    let data = vec![
        DataObject::new(1, Point::new(0.25, 0.25)),
        DataObject::new(2, Point::new(0.75, 0.75)),
    ];
    let features = vec![
        FeatureObject::new(1, Point::new(0.25, 0.25), KeywordSet::from_ids([0])),
        FeatureObject::new(2, Point::new(0.75, 0.7501), KeywordSet::from_ids([0])),
    ];
    let q = SpqQuery::new(5, 0.0, KeywordSet::from_ids([0]));
    for algo in ALGOS {
        let got = run(algo, 4, &data, &features, &q);
        assert_eq!(got.len(), 1, "{algo}");
        assert_eq!(got[0].object, 1, "{algo}");
        assert_eq!(got[0].score, Score::ONE, "{algo}");
    }
}

#[test]
fn single_cell_grid_degenerates_to_centralized() {
    let dataset = UniformGen.generate(600, 3);
    let q = SpqQuery::new(10, 0.1, KeywordSet::from_ids([1, 2]));
    let baseline = centralized::brute_force(&dataset.data, &dataset.features, &q);
    for algo in ALGOS {
        let got = run(algo, 1, &dataset.data, &dataset.features, &q);
        validate::check_result(&got, &baseline, &dataset.data, &dataset.features, &q)
            .unwrap_or_else(|e| panic!("{algo}: {e}"));
    }
}

#[test]
fn radius_spanning_many_cells() {
    // r = 0.3 over a 10x10 grid (cell 0.1): features duplicate across up
    // to 7x7 windows — correctness must not depend on r <= cell size.
    let dataset = UniformGen.generate(400, 5);
    let q = SpqQuery::new(5, 0.3, KeywordSet::from_ids([1]));
    let baseline = centralized::brute_force(&dataset.data, &dataset.features, &q);
    for algo in ALGOS {
        let got = run(algo, 10, &dataset.data, &dataset.features, &q);
        validate::check_result(&got, &baseline, &dataset.data, &dataset.features, &q)
            .unwrap_or_else(|e| panic!("{algo}: {e}"));
    }
}

#[test]
fn objects_exactly_on_cell_boundaries() {
    // Data objects and features placed exactly on grid lines of a 4x4
    // grid over the unit square (lines at multiples of 0.25).
    let data = vec![
        DataObject::new(1, Point::new(0.25, 0.25)),
        DataObject::new(2, Point::new(0.5, 0.5)),
        DataObject::new(3, Point::new(1.0, 1.0)),
        DataObject::new(4, Point::new(0.0, 0.0)),
    ];
    let features = vec![
        FeatureObject::new(1, Point::new(0.25, 0.25), KeywordSet::from_ids([0])),
        FeatureObject::new(2, Point::new(0.5, 0.45), KeywordSet::from_ids([0, 1])),
        FeatureObject::new(3, Point::new(1.0, 0.95), KeywordSet::from_ids([0, 1, 2])),
    ];
    let q = SpqQuery::new(4, 0.08, KeywordSet::from_ids([0]));
    let baseline = centralized::brute_force(&data, &features, &q);
    assert_eq!(baseline.len(), 3);
    for algo in ALGOS {
        let got = run(algo, 4, &data, &features, &q);
        validate::check_result(&got, &baseline, &data, &features, &q)
            .unwrap_or_else(|e| panic!("{algo}: {e}"));
    }
}

#[test]
fn coincident_objects_and_duplicate_locations() {
    // Many objects stacked on one point, and several features at another.
    let data: Vec<DataObject> = (0..20)
        .map(|i| DataObject::new(i, Point::new(0.3, 0.3)))
        .collect();
    let features: Vec<FeatureObject> = (0..5)
        .map(|i| {
            FeatureObject::new(
                i,
                Point::new(0.31, 0.3),
                KeywordSet::from_ids([0, i as u32 + 1]),
            )
        })
        .collect();
    let q = SpqQuery::new(7, 0.05, KeywordSet::from_ids([0]));
    let baseline = centralized::brute_force(&data, &features, &q);
    assert_eq!(baseline.len(), 7);
    // All 20 objects tie at score 1/2; tie-break by id picks 0..7.
    assert!(baseline.iter().all(|r| r.score == Score::ratio(1, 2)));
    for algo in ALGOS {
        let got = run(algo, 8, &data, &features, &q);
        validate::check_result(&got, &baseline, &data, &features, &q)
            .unwrap_or_else(|e| panic!("{algo}: {e}"));
    }
}

#[test]
fn query_keywords_absent_from_vocabulary() {
    let dataset = UniformGen.generate(500, 9);
    // Terms far beyond the generator's 1000-term vocabulary.
    let q = SpqQuery::new(5, 0.1, KeywordSet::from_ids([50_000, 60_000]));
    for algo in ALGOS {
        assert!(
            run(algo, 5, &dataset.data, &dataset.features, &q).is_empty(),
            "{algo}"
        );
    }
}

/// The smallest world known to fall between the uniform grid's cells: a
/// data object one ulp inside column 0 of a 5 × 5 grid, and a matching
/// feature whose distance to it rounds to exactly `r`. `p.x − r` rounds
/// into column 1, so a cell window taken from `[p − r, p + r]` without
/// slack skips the object's column although its cell passes the Lemma-1
/// MINDIST test. The 17 fillers sit far from the feature and size the
/// serving kernel's √|O| grid to 5 × 5 as well.
#[test]
fn an_object_one_ulp_inside_the_neighbouring_column_is_found() {
    let bounds = Rect::from_coords(-3.7, 11.3, 9.1, 19.9);
    let radius = 2.660_956_302_395_100_6;
    let mut data = vec![DataObject::new(
        3,
        Point::new(-1.140_000_000_000_000_3, 19.9),
    )];
    data.extend((0..17).map(|i| DataObject::new(100 + i, Point::new(8.0, 11.5 + 0.1 * i as f64))));
    let features = vec![FeatureObject::new(
        0,
        Point::new(1.520_956_302_395_100_5, 19.899_999_999_999_99),
        KeywordSet::from_ids([0, 1]),
    )];
    let query = SpqQuery::new(1, radius, KeywordSet::from_ids([0, 1, 2]));
    let expect = centralized::brute_force(&data, &features, &query);
    assert_eq!(expect.len(), 1, "the oracle reports object 3");
    assert_eq!(expect[0].object, 3);

    assert_eq!(
        centralized::grid_index_topk(bounds, &data, &features, &query),
        expect,
        "grid_index_topk"
    );
    let exec = SpqExecutor::new(bounds);
    for grid in [4, 5] {
        for algo in ALGOS {
            let job = exec
                .clone()
                .algorithm(algo)
                .grid_size(grid)
                .run(
                    std::slice::from_ref(&data),
                    std::slice::from_ref(&features),
                    &query,
                )
                .unwrap();
            assert_eq!(job.top_k, expect, "{algo} at grid_size({grid})");
        }
    }
    let dataset = SharedDataset::new(data, features);
    for backend in [
        Backend::Local,
        Backend::Sharded { shards: 2 },
        Backend::Remote { workers: 2 },
    ] {
        let service =
            SpqService::build(exec.clone().grid_size(5), dataset.clone(), backend).unwrap();
        let response = service.execute(&QueryRequest::new(query.clone())).unwrap();
        assert_eq!(response.results, expect, "{backend}");
    }
}

/// `x` moved by `ulps` representable values (down when negative).
fn nudge(x: f64, ulps: i64) -> f64 {
    (0..ulps.unsigned_abs()).fold(x, |x, _| if ulps < 0 { x.next_down() } else { x.next_up() })
}

/// A world built to fall between cells. The grid is `n × n` over a
/// square of side `w` placed so that it holds the origin: where a point
/// and a feature `r` away sit on either side of zero, both in a lower
/// binade than `r`, `p ± r` rounds by more than an ulp of the point.
/// Each of the `n²` data objects sits on an interior cell edge (`axis`
/// 0: a column edge, 1: a row edge), moved by up to 2 ulps. Each drawn
/// `(object, step)` places three features at distance `r` from that
/// object — across its edge, along it, or diagonally — moved by −1, 0
/// and +1 ulp on each axis the step moved along. Features outside the
/// bounds are dropped. Feature `i` carries the terms `0..=i`, so under
/// the query `{0}` every feature scores differently (`1 / (i + 1)`), and
/// the query asks for every object: a feature the window misses changes
/// its object's score, or drops the object, unless a better feature in
/// range covers it.
fn boundary_world(
    (n, w, at_x, at_y, r_frac): (u32, f64, f64, f64, f64),
    objects: &[(usize, u32, i64, f64)],
    features: &[(usize, usize)],
) -> (Rect, Vec<DataObject>, Vec<FeatureObject>, SpqQuery) {
    let (min_x, min_y) = (-at_x * w, -at_y * w);
    let bounds = Rect::from_coords(min_x, min_y, min_x + w, min_y + w);
    let cell = w / n as f64;
    let r = r_frac * cell;
    let data: Vec<DataObject> = objects
        .iter()
        .take((n * n) as usize)
        .enumerate()
        .map(|(id, &(axis, edge, ulps, t))| {
            let edge = (1 + edge % (n - 1)) as f64;
            let location = match axis {
                0 => Point::new(nudge(min_x + edge * cell, ulps), min_y + t * w),
                _ => Point::new(min_x + t * w, nudge(min_y + edge * cell, ulps)),
            };
            DataObject::new(id as u64, location)
        })
        .collect();
    let diagonal = r / std::f64::consts::SQRT_2;
    let mut placed = Vec::new();
    for &(object, step) in features {
        let (at, axis) = (
            data[object % data.len()].location,
            objects[object % data.len()].0,
        );
        let sign = if step % 2 == 0 { 1.0 } else { -1.0 };
        let (across, along) = match step {
            0..4 => (sign * r, 0.0),
            4..6 => (0.0, sign * r),
            _ => (
                sign * diagonal,
                if step == 6 { diagonal } else { -diagonal },
            ),
        };
        let (dx, dy) = if axis == 0 {
            (across, along)
        } else {
            (along, across)
        };
        let moved = |from: f64, by: f64, ulps| {
            if by == 0.0 {
                from
            } else {
                nudge(from + by, ulps)
            }
        };
        for ulps in -1..=1 {
            let location = Point::new(moved(at.x, dx, ulps), moved(at.y, dy, ulps));
            if bounds.contains(&location) {
                let id = placed.len() as u64;
                let keywords = KeywordSet::from_ids(0..=id as u32);
                placed.push(FeatureObject::new(id, location, keywords));
            }
        }
    }
    let query = SpqQuery::new(data.len(), r, KeywordSet::from_ids([0]));
    (bounds, data, placed, query)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Objects on cell edges and features at distance `r` from them: the
    /// three jobs on the `n × n` grid, the serving kernel on the local and
    /// `sharded:2` backends (its √|O| grid is the same `n × n`), and
    /// `grid_index_topk` all return `brute_force`'s bytes.
    #[test]
    fn prop_boundary_worlds_match_brute_force(
        shape in (2u32..5, 3.0f64..30.0, 0.0f64..1.0, 0.0f64..1.0, 0.5f64..2.0),
        objects in proptest::collection::vec((0usize..2, 0u32..12, -2i64..3, 0.0f64..1.0), 16..17),
        features in proptest::collection::vec((0usize..16, 0usize..8), 1..24),
    ) {
        let (bounds, data, features, query) = boundary_world(shape, &objects, &features);
        let expect = centralized::brute_force(&data, &features, &query);
        prop_assert_eq!(
            &centralized::grid_index_topk(bounds, &data, &features, &query),
            &expect,
            "grid_index_topk"
        );
        let exec = SpqExecutor::new(bounds).grid_size(shape.0);
        for algo in ALGOS {
            let job = exec
                .clone()
                .algorithm(algo)
                .run(std::slice::from_ref(&data), std::slice::from_ref(&features), &query)
                .unwrap();
            prop_assert_eq!(&job.top_k, &expect, "{}", algo);
        }
        let dataset = SharedDataset::new(data, features);
        for backend in [Backend::Local, Backend::Sharded { shards: 2 }] {
            let service = SpqService::build(exec.clone(), dataset.clone(), backend).unwrap();
            let response = service.execute(&QueryRequest::new(query.clone())).unwrap();
            prop_assert_eq!(&response.results, &expect, "{}", backend);
        }
    }
}
