//! The direct serving kernel: one query answered from the engine's
//! build-once state, without a MapReduce job.
//!
//! A reducer sees one cell, so the paper's eSPQsco (§5.2, Algorithms 5–6)
//! can only stop early *per cell*. A persistent engine owns a keyword
//! index and its data objects bucketed on one grid — so it can apply the
//! same rule against **one global `τ`**, keywords before geometry:
//!
//! 1. merge the query's posting lists into `(feature, |q.W ∩ f.W|)` and
//!    score each candidate from the three set sizes
//!    ([`SetSimilarity::score_from_counts`](spq_text::SetSimilarity::score_from_counts)
//!    — no feature object is touched);
//! 2. pop candidates in descending score order; for each, scan the data
//!    objects of the grid cells within `r` of it
//!    ([`GridIndex::for_each_cell_within`]) with the codebase's one
//!    predicate, `dist_sq <= r²`;
//! 3. offer every hit to one global [`TopKList`]; stop when it is full and
//!    the popped score is **strictly below** `τ`.
//!
//! `== τ` must continue: the canonical order breaks score ties by
//! ascending id, so a later candidate of the same score can still reach a
//! data object with a smaller id than the current k-th entry. Because
//! candidates arrive in descending score order, the first score an object
//! is offered is its true `τ(p)`; everything unvisited at the stop scores
//! below the k-th entry, so the list is exactly the canonical top-k — the
//! bytes of the job path and of
//! [`brute_force`](crate::centralized::brute_force).
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
use std::collections::BinaryHeap;

/// One kernel answer: the canonical top-k plus how much work it took.
#[derive(Debug)]
pub(crate) struct KernelAnswer {
    pub(crate) top_k: Vec<RankedObject>,
    /// Candidate features scored (= features sharing a keyword with the
    /// query).
    pub(crate) candidates: u64,
    /// Candidates popped and scanned before the global-τ stop.
    pub(crate) visited: u64,
    /// `dist_sq <= r²` evaluations.
    pub(crate) distance_checks: u64,
}

/// Every feature sharing a keyword with the query, scored, as a max-heap:
/// pops in descending score order, ties by ascending feature index.
fn ranked_candidates(index: &KeywordIndex, query: &SpqQuery) -> BinaryHeap<(Score, Reverse<u32>)> {
    let query_len = query.keywords.len();
    let mut scored = Vec::new();
    index.for_each_match(&query.keywords, |feature, inter| {
        let score =
            query
                .similarity
                .score_from_counts(inter, query_len, index.feature_len(feature));
        scored.push((score, Reverse(feature)));
    });
    BinaryHeap::from(scored)
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
    let mut heap = ranked_candidates(index, query);
    let candidates = heap.len() as u64;
    let features = dataset.features();
    let r_sq = query.radius * query.radius;
    let mut list = TopKList::new(query.k);
    let (mut visited, mut distance_checks) = (0u64, 0u64);
    while let Some((score, Reverse(feature))) = heap.pop() {
        // Strictly below: a candidate scoring exactly τ can still reach a
        // smaller id than the k-th entry's.
        if list.is_full() && score < list.tau() {
            break;
        }
        visited += 1;
        let location = features[feature as usize].location;
        grid.for_each_cell_within(&location, query.radius, |cell| {
            distance_checks += cell.len() as u64;
            for &(p, id) in cell {
                if p.dist_sq(&location) <= r_sq {
                    list.update(id, p, score);
                }
            }
        });
    }
    KernelAnswer {
        top_k: list.into_vec(),
        candidates,
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
        let mut heap = ranked_candidates(&index, &query);
        let mut popped = Vec::new();
        while let Some((score, Reverse(feature))) = heap.pop() {
            assert_eq!(
                score,
                query.score(&dataset.features()[feature as usize].keywords)
            );
            popped.push(score);
        }
        assert_eq!(popped.len(), 10);
        assert!(popped.windows(2).all(|w| w[0] > w[1]), "{popped:?}");
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
