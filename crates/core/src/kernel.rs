//! The direct serving kernel: one query answered from the engine's cached
//! state, without a MapReduce job.
//!
//! A reducer sees one cell, so the paper's eSPQsco (§5.2, Algorithms 5–6)
//! can only stop early *per cell*. A persistent engine owns a keyword
//! index and, per radius, the Lemma-1 routing of every feature — so it can
//! apply the same rule against **one global `τ`**, keywords before
//! geometry:
//!
//! 1. merge the query's posting lists into `(feature, |q.W ∩ f.W|)` and
//!    score each candidate from the three set sizes
//!    ([`SetSimilarity::score_from_counts`](spq_text::SetSimilarity::score_from_counts)
//!    — no feature object is touched);
//! 2. pop candidates in descending score order; for each, walk its
//!    precomputed target cells ([`CellRouting::feature_targets`]) and
//!    distance-check only those cells' data objects ([`CellTable`]) with
//!    the codebase's one predicate, `dist_sq <= r²`;
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
//! Coverage is the job's: a data object is tested against a feature iff
//! its cell is one of the feature's Lemma-1 targets, the same pairs the
//! reducers see.

use crate::engine::KeywordIndex;
use crate::model::RankedObject;
use crate::partitioning::CellRouting;
use crate::query::SpqQuery;
use crate::store::SharedDataset;
use crate::topk::TopKList;
use spq_text::Score;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The data objects of each cell, CSR-packed: `members[offsets[c]..
/// offsets[c + 1]]` are the store indices of the data objects whose
/// enclosing cell is `c`, ascending. Built once per cached
/// `(partition, radius)` plan beside its [`CellRouting`]; costs 4 bytes
/// per data object plus 4 per cell.
#[derive(Debug)]
pub(crate) struct CellTable {
    offsets: Box<[u32]>,
    members: Box<[u32]>,
}

impl CellTable {
    /// Groups data objects `0..num_data` by `routing.data_cell(i)` (a
    /// counting sort, so each cell's members stay in store order).
    pub(crate) fn build(routing: &CellRouting, num_cells: usize, num_data: usize) -> Self {
        let mut offsets = vec![0u32; num_cells + 1];
        for i in 0..num_data as u32 {
            offsets[routing.data_cell(i).0 as usize + 1] += 1;
        }
        for c in 0..num_cells {
            offsets[c + 1] += offsets[c];
        }
        let mut cursor = offsets.clone();
        let mut members = vec![0u32; num_data];
        for i in 0..num_data as u32 {
            let slot = &mut cursor[routing.data_cell(i).0 as usize];
            members[*slot as usize] = i;
            *slot += 1;
        }
        Self {
            offsets: offsets.into_boxed_slice(),
            members: members.into_boxed_slice(),
        }
    }

    /// The store indices of the data objects in `cell`.
    #[inline]
    fn members(&self, cell: u32) -> &[u32] {
        let c = cell as usize;
        &self.members[self.offsets[c] as usize..self.offsets[c + 1] as usize]
    }
}

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
/// `routing` and `cells` must come from the same plan, built over
/// `dataset` at `query.radius`; `index` must index `dataset.features()`.
pub(crate) fn top_k(
    dataset: &SharedDataset,
    index: &KeywordIndex,
    routing: &CellRouting,
    cells: &CellTable,
    query: &SpqQuery,
) -> KernelAnswer {
    debug_assert_eq!(routing.radius().to_bits(), query.radius.to_bits());
    let mut heap = ranked_candidates(index, query);
    let candidates = heap.len() as u64;
    let (data, features) = (dataset.data(), dataset.features());
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
        for &cell in routing.feature_targets(feature) {
            let members = cells.members(cell);
            distance_checks += members.len() as u64;
            for &i in members {
                let p = &data[i as usize];
                if p.location.dist_sq(&location) <= r_sq {
                    list.update(p.id, p.location, score);
                }
            }
        }
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
    use spq_spatial::{Grid, Point, Rect, SpacePartition};
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

    fn prebuilt(dataset: &SharedDataset, radius: f64) -> (KeywordIndex, CellRouting, CellTable) {
        let partition: SpacePartition = Grid::square(Rect::unit(), 4).into();
        let routing = CellRouting::build(&partition, dataset, radius);
        let cells = CellTable::build(&routing, partition.num_cells(), dataset.data().len());
        (KeywordIndex::build(dataset.features()), routing, cells)
    }

    #[test]
    fn cell_table_groups_every_data_object_once_in_store_order() {
        let dataset = diagonal();
        let (_, routing, cells) = prebuilt(&dataset, 0.01);
        let mut seen = 0;
        for cell in 0..16u32 {
            let members = cells.members(cell);
            assert!(members.windows(2).all(|w| w[0] < w[1]), "cell {cell}");
            assert!(members.iter().all(|&i| routing.data_cell(i).0 == cell));
            seen += members.len();
        }
        assert_eq!(seen, dataset.data().len());
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
        let (index, routing, cells) = prebuilt(&dataset, 0.01);
        let query = SpqQuery::new(3, 0.01, KeywordSet::from_ids([0]));
        let answer = top_k(&dataset, &index, &routing, &cells, &query);
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
        let (index, routing, cells) = prebuilt(&dataset, 0.01);
        let query = SpqQuery::new(1, 0.01, KeywordSet::from_ids([0]));
        let answer = top_k(&dataset, &index, &routing, &cells, &query);
        assert_eq!(answer.visited, 2);
        assert_eq!(answer.top_k[0].object, 1);
        assert_eq!(
            answer.top_k,
            brute_force(dataset.data(), dataset.features(), &query)
        );
    }
}
