//! The direct serving kernel: one query answered from the engine's
//! build-once state, without a MapReduce job.
//!
//! A reducer sees one cell, so the paper's eSPQsco (§5.2, Algorithms 5–6)
//! can only stop early *per cell*. A persistent engine owns a keyword
//! index and its data objects bucketed on one grid — so it can apply the
//! same rule against **one global `τ`**, keywords before geometry:
//!
//! 1. merge the query's posting lists into `(feature, |q.W ∩ f.W|)`; with
//!    `|f.W|` from the index, that pair is all a score depends on
//!    ([`SetSimilarity::score_from_counts`](spq_text::SetSimilarity::score_from_counts)
//!    — no feature object is touched). The merge puts each candidate in
//!    the bucket of its `|q.W ∩ f.W|`;
//! 2. walk score classes. The index numbers a slice's features by
//!    `(|f.W|, store order)` once, at build time, so each bucket arrives
//!    ascending by `|f.W|` and a class of equal `(|q.W ∩ f.W|, |f.W|)` is
//!    one range of it: the bucket is cut where the index's length runs end
//!    (a binary search per class, no counting sort and no per-candidate
//!    length lookup). By ascending length a bucket's classes come by
//!    non-increasing score, so the walk takes the best of the buckets'
//!    next classes, scoring each class once as it is cut — the classes
//!    come in descending score order, nothing is sorted, and a class past
//!    the stop is never cut. For each candidate of a class, scan the data
//!    objects of the grid cells within `r` of it
//!    ([`GridIndex::for_each_cell_within`]) with the codebase's one
//!    predicate, `dist_sq <= r²`;
//! 3. offer every hit to one global [`TopKList`]; stop before a class when
//!    the list is full and the class's score is **strictly below** `τ`.
//!
//! `== τ` must continue: the canonical order breaks score ties by
//! ascending id, so a later candidate of the same score can still reach a
//! data object with a smaller id than the current k-th entry. Because
//! candidates arrive in descending score order, the first score an object
//! is offered is its true `τ(p)`; everything unvisited at the stop scores
//! below the k-th entry, so the list is exactly the canonical top-k — the
//! bytes of the job path and of
//! [`brute_force`](crate::centralized::brute_force). Testing the stop once
//! per class is exact: a class of score `s` is entered only while
//! `τ <= s`, and offers scoring `s` cannot lift `τ` above `s`, so a run of
//! equal scores — one class or several tied ones, in any order — is
//! either entirely below `τ` or visited whole. The order inside a run
//! therefore moves neither a result byte nor a work counter.
//!
//! The kernel reads one [`KernelState`] and nothing else: a slice of `F`
//! as its keyword index and feature locations (no feature object), and
//! the data objects on one grid. The local engine's slice is all of `F`;
//! a shard's is its block of `F` ([`crate::sharded`]), and the answer is
//! then the canonical top-k of every data object scored over that slice
//! alone — the partial scores the shards' gather combines.
//!
//! Coverage is Lemma 1's on a grid fixed before any radius is known: a
//! data object within `r` of a feature lies in a cell whose MINDIST to the
//! feature is at most `r`, which is exactly the set of cells scanned — the
//! feature's own cell plus its duplication targets at `r`. No per-radius
//! partition, routing table or cache is involved, so the answer is the
//! same whatever grid the job would have planned.

use crate::engine::KeywordIndex;
use crate::model::{ObjectId, RankedObject};
use crate::query::SpqQuery;
use crate::topk::TopKList;
use spq_spatial::{GridIndex, Point};
use spq_text::Score;
use std::sync::Arc;

/// One slice of `F` as the kernel reads it: the keyword index over the
/// slice and each feature's location, feature `i` of the index at
/// `locations[i]` — both numbered by `(|f.W|, store order)`. No keyword
/// list is kept beside the index. A remote worker receives these columns
/// as the manager built them and keeps them as they arrive.
#[derive(Debug)]
pub(crate) struct FeatureSide {
    pub(crate) locations: Box<[Point]>,
    pub(crate) index: KeywordIndex,
}

/// The serving state one kernel answers from: a slice of `F` and the data
/// objects it ranks, bucketed on one radius-independent grid. The local
/// engine's slice is all of `F`; a shard's is its contiguous block, and
/// every shard of a process shares one grid over all of `O`.
#[derive(Debug, Clone)]
pub(crate) struct KernelState {
    pub(crate) features: Arc<FeatureSide>,
    pub(crate) grid: Arc<GridIndex<ObjectId>>,
}

/// How much work one kernel answer took.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct KernelWork {
    /// Candidate features (= features sharing a keyword with the query),
    /// each placed in its score class.
    pub(crate) candidates: u64,
    /// Candidates whose cells were scanned before the global-τ stop.
    pub(crate) visited: u64,
    /// `dist_sq <= r²` evaluations.
    pub(crate) distance_checks: u64,
}

/// One kernel answer: the canonical top-k plus how much work it took.
#[derive(Debug)]
pub(crate) struct KernelAnswer {
    pub(crate) top_k: Vec<RankedObject>,
    pub(crate) work: KernelWork,
}

/// Merges the query's posting lists into one bucket per `|q.W ∩ f.W|`:
/// `buckets[c]` holds the candidates sharing `c` keywords with the query,
/// ascending by index number — so by `|f.W|`, each length one contiguous
/// class, in store order inside it. Scratch is O(candidates + |q.W|),
/// however many keywords a query carries.
fn buckets(index: &KeywordIndex, query: &SpqQuery) -> Vec<Vec<u32>> {
    let mut buckets = vec![Vec::new(); query.keywords.len() + 1];
    index.for_each_match(&query.keywords, |feature, inter| {
        buckets[inter].push(feature)
    });
    buckets
}

/// A query's score classes — candidates sharing `(|q.W ∩ f.W|, |f.W|)`,
/// and so a score — each a range of its bucket, yielded by descending
/// score as the walk asks for them; classes of equal score come in no
/// particular order. A bucket's classes are cut off its front where the
/// index's length runs end. By ascending length they come by
/// non-increasing score under all three similarities, so the next class
/// overall is the best of the buckets' next ones: a class the walk never
/// reaches is never cut, and nothing is sorted.
fn score_classes<'a>(
    index: &'a KeywordIndex,
    query: &'a SpqQuery,
    buckets: &'a [Vec<u32>],
) -> impl Iterator<Item = (Score, &'a [u32])> {
    let query_len = query.keywords.len();
    // What is left of each bucket, by intersection size.
    let mut rests: Vec<&[u32]> = buckets.iter().map(Vec::as_slice).collect();
    std::iter::from_fn(move || {
        let fronts = rests.iter().enumerate().filter_map(|(inter, rest)| {
            let (run_end, len) = index.run_of(*rest.first()?);
            let score = query.similarity.score_from_counts(inter, query_len, len);
            Some((score, inter, run_end))
        });
        let (score, inter, run_end) = fronts.max_by_key(|&(score, ..)| score)?;
        let (class, after) = rests[inter].split_at(rests[inter].partition_point(|&f| f < run_end));
        rests[inter] = after;
        Some((score, class))
    })
}

/// Answers `query` from prebuilt state (see the [module docs](self)): the
/// canonical top-k of the state's data objects, each scored over the
/// state's features only.
pub(crate) fn top_k(state: &KernelState, query: &SpqQuery) -> KernelAnswer {
    let buckets = buckets(&state.features.index, query);
    let locations = &state.features.locations;
    let grid = &state.grid;
    let r_sq = query.radius * query.radius;
    let mut list = TopKList::new(query.k);
    let (mut visited, mut distance_checks) = (0u64, 0u64);
    for (score, features) in score_classes(&state.features.index, query, &buckets) {
        // Strictly below: a candidate scoring exactly τ can still reach a
        // smaller id than the k-th entry's. Offers of this class's score
        // cannot lift τ above it, so testing once per class is exact.
        if list.is_full() && score < list.tau() {
            break;
        }
        for &feature in features {
            visited += 1;
            let location = locations[feature as usize];
            grid.for_each_cell_within(&location, query.radius, |cell| {
                distance_checks += cell.len() as u64;
                for &(p, id) in cell {
                    if p.dist_sq(&location) <= r_sq {
                        list.update(id, p, score);
                    }
                }
            });
        }
    }
    KernelAnswer {
        top_k: list.into_vec(),
        work: KernelWork {
            candidates: buckets.iter().map(Vec::len).sum::<usize>() as u64,
            visited,
            distance_checks,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::centralized::brute_force;
    use crate::engine::feature_side;
    use crate::model::{DataObject, FeatureObject};
    use crate::store::SharedDataset;
    use spq_spatial::{Point, Rect};
    use spq_text::KeywordSet;

    /// Ten co-located (data, feature) pairs along the diagonal; feature
    /// `i` carries keyword 0 plus `i` fillers, so its Jaccard score
    /// against `{0}` is `1 / (i + 1)` — all distinct, descending in `i`.
    fn diagonal() -> SharedDataset {
        let at = |i: u32| Point::new(0.05 + 0.1 * i as f64, 0.05 + 0.1 * i as f64);
        SharedDataset::new(
            (0..10).map(|i| DataObject::new(i as u64, at(i))).collect(),
            (0..10)
                .map(|i| {
                    let fillers = (0..i).map(|t| 100 + 10 * i + t);
                    let keywords = KeywordSet::from_ids(std::iter::once(0).chain(fillers));
                    FeatureObject::new(i as u64, at(i), keywords)
                })
                .collect(),
        )
    }

    /// The local engine's kernel state over `dataset`.
    fn prebuilt(dataset: &SharedDataset) -> KernelState {
        let data = dataset.data().iter().map(|o| (o.location, o.id));
        KernelState {
            features: Arc::new(feature_side(dataset.features())),
            grid: Arc::new(GridIndex::build(Rect::unit(), data)),
        }
    }

    #[test]
    fn candidates_pop_in_descending_score_order() {
        let dataset = diagonal();
        let index = KeywordIndex::build(dataset.features());
        let query = SpqQuery::new(3, 0.01, KeywordSet::from_ids([0]));
        let buckets = buckets(&index, &query);
        let mut popped = Vec::new();
        for (score, features) in score_classes(&index, &query, &buckets) {
            for &feature in features {
                // Every feature carries a distinct number of keywords, so
                // the numbering is store order.
                assert_eq!(
                    score,
                    query.score(&dataset.features()[feature as usize].keywords)
                );
                popped.push(score);
            }
        }
        assert_eq!(popped.len(), 10);
        assert!(popped.windows(2).all(|w| w[0] > w[1]), "{popped:?}");
    }

    /// Against `{0, 1, 2}`, Jaccard scores `(|q.W ∩ f.W|, |f.W|)` = (1, 4)
    /// and (2, 11) both 1/6: two classes, one score.
    fn class_tied() -> SharedDataset {
        let feature = |id: u64, at: Point, shared: &[u32], len: u32| {
            let fillers = (shared.len() as u32..len).map(|t| 100 + 20 * id as u32 + t);
            let keywords = KeywordSet::from_ids(shared.iter().copied().chain(fillers));
            FeatureObject::new(id, at, keywords)
        };
        let (near, far, mid) = (
            Point::new(0.1, 0.1),
            Point::new(0.9, 0.9),
            Point::new(0.5, 0.5),
        );
        SharedDataset::new(
            vec![
                DataObject::new(5, near),
                DataObject::new(1, far),
                DataObject::new(0, mid),
            ],
            vec![
                feature(0, near, &[0], 4),
                feature(1, far, &[0, 1], 11),
                // (1, 10): 1/12, below the tie.
                feature(2, mid, &[2], 10),
            ],
        )
    }

    #[test]
    fn tied_classes_walk_as_one_run_and_are_visited_at_tau() {
        let dataset = class_tied();
        let state = prebuilt(&dataset);
        let query = SpqQuery::new(1, 0.01, KeywordSet::from_ids([0, 1, 2]));
        let index = &state.features.index;
        let buckets = buckets(index, &query);
        let classes: Vec<_> = score_classes(index, &query, &buckets).collect();
        let scores: Vec<Score> = classes.iter().map(|&(score, _)| score).collect();
        assert_eq!(
            scores,
            [Score::ratio(1, 6), Score::ratio(1, 6), Score::ratio(1, 12)]
        );
        let mut tied: Vec<u32> = classes[..2]
            .iter()
            .flat_map(|&(_, features)| features.to_vec())
            .collect();
        tied.sort_unstable();
        // Numbered by length: features 0, 2 and 1 in store order are 4, 11
        // and 10 keywords long.
        assert_eq!(tied, [0, 2], "one feature per tied class");
        // Whichever tied class walks first fills the list at τ = 1/6; the
        // other is still visited and its object 1 displaces object 5. The
        // 1/12 class is below τ and stays unvisited.
        let answer = top_k(&state, &query);
        assert_eq!((answer.work.candidates, answer.work.visited), (3, 2));
        assert_eq!(answer.top_k[0].object, 1);
        assert_eq!(
            answer.top_k,
            brute_force(dataset.data(), dataset.features(), &query)
        );
    }

    #[test]
    fn global_tau_stops_before_the_candidates_run_out() {
        let dataset = diagonal();
        let state = prebuilt(&dataset);
        let query = SpqQuery::new(3, 0.01, KeywordSet::from_ids([0]));
        let answer = top_k(&state, &query);
        assert_eq!(
            answer.top_k,
            brute_force(dataset.data(), dataset.features(), &query)
        );
        let work = answer.work;
        assert_eq!(work.candidates, 10);
        // Three visits fill the list; the fourth candidate scores below τ.
        assert_eq!(work.visited, 3);
        assert!(work.visited < work.candidates);
        assert!(work.distance_checks >= work.visited);
    }

    #[test]
    fn equal_scores_at_tau_are_still_visited() {
        // Two features score 1 against {0}; the second to pop is the only
        // one near data object 1, whose id beats the first's object 5.
        let dataset = SharedDataset::new(
            vec![
                DataObject::new(5, Point::new(0.1, 0.1)),
                DataObject::new(1, Point::new(0.9, 0.9)),
            ],
            vec![
                FeatureObject::new(0, Point::new(0.1, 0.1), KeywordSet::from_ids([0])),
                FeatureObject::new(1, Point::new(0.9, 0.9), KeywordSet::from_ids([0])),
            ],
        );
        let state = prebuilt(&dataset);
        let query = SpqQuery::new(1, 0.01, KeywordSet::from_ids([0]));
        let answer = top_k(&state, &query);
        assert_eq!(answer.work.visited, 2);
        assert_eq!(answer.top_k[0].object, 1);
        assert_eq!(
            answer.top_k,
            brute_force(dataset.data(), dataset.features(), &query)
        );
    }
}
