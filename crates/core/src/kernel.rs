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
//!    — no feature object is touched);
//! 2. walk score classes: counting-sort the candidates into classes of
//!    equal `(|q.W ∩ f.W|, |f.W|)`, score each class once, and take the
//!    classes in descending score order — a few hundred classes sorted
//!    instead of every candidate heapified. For each candidate of a class,
//!    scan the data objects of the grid cells within `r` of it
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
//! Coverage is Lemma 1's on a grid fixed before any radius is known: a
//! data object within `r` of a feature lies in a cell whose MINDIST to the
//! feature is at most `r`, which is exactly the set of cells scanned — the
//! feature's own cell plus its duplication targets at `r`. No per-radius
//! partition, routing table or cache is involved, so the answer is the
//! same whatever grid the job would have planned.

use crate::engine::KeywordIndex;
use crate::model::{ObjectId, RankedObject};
use crate::query::SpqQuery;
use crate::store::SharedDataset;
use crate::topk::TopKList;
use spq_spatial::GridIndex;
use spq_text::Score;
use std::cmp::Reverse;

/// One kernel answer: the canonical top-k plus how much work it took.
#[derive(Debug)]
pub(crate) struct KernelAnswer {
    pub(crate) top_k: Vec<RankedObject>,
    /// Candidate features (= features sharing a keyword with the query),
    /// each placed in its score class.
    pub(crate) candidates: u64,
    /// Candidates whose cells were scanned before the global-τ stop.
    pub(crate) visited: u64,
    /// `dist_sq <= r²` evaluations.
    pub(crate) distance_checks: u64,
}

/// One score class: the candidates sharing `(|q.W ∩ f.W|, |f.W|)`, which
/// therefore share a score, as a range of [`ScoreClasses::order`].
#[derive(Debug)]
struct Class {
    score: Score,
    start: u32,
    end: u32,
}

/// Every feature sharing a keyword with the query, grouped into score
/// classes.
#[derive(Debug)]
struct ScoreClasses {
    /// The candidates, each class contiguous and ascending by feature
    /// index inside it.
    order: Vec<u32>,
    /// The non-empty classes by descending score; classes of equal score
    /// are adjacent, in no particular order.
    classes: Vec<Class>,
}

impl ScoreClasses {
    /// Merges the query's posting lists, bucketing each candidate by
    /// `|q.W ∩ f.W|` as the merge emits it, then counting-sorts each
    /// bucket by `|f.W|` into one order array, scoring each non-empty
    /// class once. Scratch is O(candidates + |q.W| + max |f.W|), however
    /// many keywords a query carries.
    fn build(index: &KeywordIndex, query: &SpqQuery) -> Self {
        let query_len = query.keywords.len();
        // `by_inter[c]`: the `(feature, |f.W|)` sharing `c` keywords.
        let mut by_inter: Vec<Vec<(u32, u32)>> = vec![Vec::new(); query_len + 1];
        let (mut candidates, mut max_len) = (0, 0);
        index.for_each_match(&query.keywords, |feature, inter| {
            let len = index.feature_len(feature);
            max_len = max_len.max(len);
            candidates += 1;
            by_inter[inter].push((feature, len as u32));
        });
        let mut order = vec![0u32; candidates];
        let mut classes = Vec::new();
        let mut len_next = vec![0u32; max_len + 1];
        let mut at = 0u32;
        for (inter, bucket) in by_inter.iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            len_next.fill(0);
            for &(_, len) in bucket {
                len_next[len as usize] += 1;
            }
            for (len, next) in len_next.iter_mut().enumerate() {
                if *next > 0 {
                    let (start, end) = (at, at + *next);
                    let score = query.similarity.score_from_counts(inter, query_len, len);
                    classes.push(Class { score, start, end });
                    (*next, at) = (start, end);
                }
            }
            for &(feature, len) in bucket {
                order[len_next[len as usize] as usize] = feature;
                len_next[len as usize] += 1;
            }
        }
        // Within one intersection size the classes came out by ascending
        // length, which is non-increasing score under all three
        // similarities, so this stable sort merges `|q.W|` sorted runs.
        classes.sort_by_key(|class| Reverse(class.score));
        Self { order, classes }
    }

    /// The class's candidates.
    fn features(&self, class: &Class) -> &[u32] {
        &self.order[class.start as usize..class.end as usize]
    }
}

/// Answers `query` from prebuilt state (see the [module docs](self)).
/// `index` must index `dataset.features()`; `grid` holds the data objects
/// the query ranks (the engine's, whatever slice of a store it serves).
pub(crate) fn top_k(
    dataset: &SharedDataset,
    index: &KeywordIndex,
    grid: &GridIndex<ObjectId>,
    query: &SpqQuery,
) -> KernelAnswer {
    let ranked = ScoreClasses::build(index, query);
    let features = dataset.features();
    let r_sq = query.radius * query.radius;
    let mut list = TopKList::new(query.k);
    let (mut visited, mut distance_checks) = (0u64, 0u64);
    for class in &ranked.classes {
        // Strictly below: a candidate scoring exactly τ can still reach a
        // smaller id than the k-th entry's. Offers of this class's score
        // cannot lift τ above it, so testing once per class is exact.
        if list.is_full() && class.score < list.tau() {
            break;
        }
        for &feature in ranked.features(class) {
            visited += 1;
            let location = features[feature as usize].location;
            grid.for_each_cell_within(&location, query.radius, |cell| {
                distance_checks += cell.len() as u64;
                for &(p, id) in cell {
                    if p.dist_sq(&location) <= r_sq {
                        list.update(id, p, class.score);
                    }
                }
            });
        }
    }
    KernelAnswer {
        top_k: list.into_vec(),
        candidates: ranked.order.len() as u64,
        visited,
        distance_checks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::centralized::brute_force;
    use crate::model::{DataObject, FeatureObject};
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

    fn prebuilt(dataset: &SharedDataset) -> (KeywordIndex, GridIndex<ObjectId>) {
        let data = dataset.data().iter().map(|o| (o.location, o.id));
        (
            KeywordIndex::build(dataset.features()),
            GridIndex::build(Rect::unit(), data),
        )
    }

    #[test]
    fn candidates_pop_in_descending_score_order() {
        let dataset = diagonal();
        let index = KeywordIndex::build(dataset.features());
        let query = SpqQuery::new(3, 0.01, KeywordSet::from_ids([0]));
        let ranked = ScoreClasses::build(&index, &query);
        let mut popped = Vec::new();
        for class in &ranked.classes {
            for &feature in ranked.features(class) {
                assert_eq!(
                    class.score,
                    query.score(&dataset.features()[feature as usize].keywords)
                );
                popped.push(class.score);
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
        let (index, grid) = prebuilt(&dataset);
        let query = SpqQuery::new(1, 0.01, KeywordSet::from_ids([0, 1, 2]));
        let ranked = ScoreClasses::build(&index, &query);
        let scores: Vec<Score> = ranked.classes.iter().map(|c| c.score).collect();
        assert_eq!(
            scores,
            [Score::ratio(1, 6), Score::ratio(1, 6), Score::ratio(1, 12)]
        );
        let mut tied: Vec<u32> = ranked.classes[..2]
            .iter()
            .flat_map(|c| ranked.features(c).to_vec())
            .collect();
        tied.sort_unstable();
        assert_eq!(tied, [0, 1], "one feature per tied class");
        // Whichever tied class walks first fills the list at τ = 1/6; the
        // other is still visited and its object 1 displaces object 5. The
        // 1/12 class is below τ and stays unvisited.
        let answer = top_k(&dataset, &index, &grid, &query);
        assert_eq!((answer.candidates, answer.visited), (3, 2));
        assert_eq!(answer.top_k[0].object, 1);
        assert_eq!(
            answer.top_k,
            brute_force(dataset.data(), dataset.features(), &query)
        );
    }

    #[test]
    fn global_tau_stops_before_the_candidates_run_out() {
        let dataset = diagonal();
        let (index, grid) = prebuilt(&dataset);
        let query = SpqQuery::new(3, 0.01, KeywordSet::from_ids([0]));
        let answer = top_k(&dataset, &index, &grid, &query);
        assert_eq!(
            answer.top_k,
            brute_force(dataset.data(), dataset.features(), &query)
        );
        assert_eq!(answer.candidates, 10);
        // Three visits fill the list; the fourth candidate scores below τ.
        assert_eq!(answer.visited, 3);
        assert!(answer.visited < answer.candidates);
        assert!(answer.distance_checks >= answer.visited);
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
        let (index, grid) = prebuilt(&dataset);
        let query = SpqQuery::new(1, 0.01, KeywordSet::from_ids([0]));
        let answer = top_k(&dataset, &index, &grid, &query);
        assert_eq!(answer.visited, 2);
        assert_eq!(answer.top_k[0].object, 1);
        assert_eq!(
            answer.top_k,
            brute_force(dataset.data(), dataset.features(), &query)
        );
    }
}
