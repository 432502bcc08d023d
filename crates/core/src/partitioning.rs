//! Shared Map-phase logic: grid assignment, keyword pruning, Lemma-1
//! feature duplication.
//!
//! All three algorithms share the same Map skeleton (Algorithms 1, 3, 5
//! differ only in the composite key they attach):
//!
//! * a **data object** is routed to its enclosing cell, once;
//! * a **feature object** with no common keyword with `q.W` is dropped
//!   (the pruning rule of Algorithm 1 line 9 — such features cannot
//!   contribute to any score);
//! * a surviving feature object is routed to its enclosing cell *and*
//!   duplicated into every cell within `MINDIST <= r` (Lemma 1).
//!
//! The routing decisions depend only on the partition, the object
//! locations and the radius — **not** on the query keywords — so they
//! could be computed once per radius: [`CellRouting`] packs the full
//! routing (enclosing cell per data object, enclosing cell + Lemma-1
//! targets per feature object) into flat lookup tables. Jobs route live;
//! the tables price what such a per-radius plan costs to build.

use crate::model::FeatureObject;
use crate::query::SpqQuery;
use crate::store::SharedDataset;
use spq_spatial::{CellId, Point, SpacePartition};
use spq_text::Score;

/// Counter: data objects routed by the map phase.
pub const COUNTER_MAP_DATA: &str = "map.data_records";
/// Counter: feature objects that survived keyword pruning.
pub const COUNTER_MAP_FEATURES: &str = "map.feature_records";
/// Counter: feature objects dropped by the keyword pruning rule.
pub const COUNTER_MAP_PRUNED: &str = "map.features_pruned";
/// Counter: extra copies of feature objects created by Lemma-1 duplication
/// (the own-cell copy is not counted).
pub const COUNTER_MAP_DUPLICATES: &str = "map.feature_duplicates";
/// Counter: feature objects examined by reducers (score computations
/// attempted). Early termination shows up as this staying tiny.
pub const COUNTER_REDUCE_FEATURES_EXAMINED: &str = "reduce.features_examined";
/// Counter: distance evaluations `d(p, f) <= r` performed by reducers —
/// the `O(|Oi|·|Fi|)` term of the Section-6 cost analysis.
pub const COUNTER_REDUCE_DISTANCE_CHECKS: &str = "reduce.distance_checks";
/// Counter: reduce groups (cells) that terminated before exhausting their
/// feature stream.
pub const COUNTER_REDUCE_EARLY_TERMINATIONS: &str = "reduce.early_terminations";

/// Routes a data object: its enclosing cell only.
#[inline]
pub fn route_data(grid: &SpacePartition, location: &Point) -> CellId {
    grid.cell_of(location)
}

/// The keyword pruning rule of Algorithm 1 line 9: a feature with no
/// common keyword with `q.W` cannot contribute to any score. The map
/// tasks apply this *before* scoring a feature, so pruned features cost
/// neither a Jaccard computation nor a shuffle record.
#[inline]
pub fn feature_matches(query: &SpqQuery, feature: &FeatureObject) -> bool {
    query.keywords.intersects(&feature.keywords)
}

/// Routes a feature object, applying the keyword pruning rule and Lemma-1
/// duplication. Calls `emit(cell)` for the enclosing cell and every
/// duplication target; returns `false` (without emitting) when the
/// feature is pruned.
#[inline]
pub fn route_feature<F: FnMut(CellId)>(
    grid: &SpacePartition,
    query: &SpqQuery,
    feature: &FeatureObject,
    emit: F,
) -> bool {
    route_feature_with_pruning(grid, query, feature, true, emit)
}

/// [`route_feature`] with the pruning rule made optional — the ablation
/// knob behind [`crate::SpqExecutor::keyword_pruning`]. With pruning
/// disabled, every feature object is shuffled (and duplicated) regardless
/// of its keywords; the reducers still compute correct results because a
/// zero-score feature can never beat the top-k threshold.
#[inline]
pub fn route_feature_with_pruning<F: FnMut(CellId)>(
    grid: &SpacePartition,
    query: &SpqQuery,
    feature: &FeatureObject,
    prune: bool,
    mut emit: F,
) -> bool {
    if prune && !feature_matches(query, feature) {
        return false;
    }
    emit(grid.cell_of(&feature.location));
    grid.for_each_duplication_target(&feature.location, query.radius, &mut emit);
    true
}

/// The shared map-side feature skeleton of Algorithms 1, 3 and 5: applies
/// the keyword pruning rule, computes the feature's score **once**, and
/// calls `emit(cell, score)` for the enclosing cell and every Lemma-1
/// duplication target. Returns the number of emitted copies (>= 1), or
/// `None` when the feature was pruned.
#[inline]
pub fn route_scored_feature<F: FnMut(CellId, Score)>(
    grid: &SpacePartition,
    query: &SpqQuery,
    feature: &FeatureObject,
    prune: bool,
    mut emit: F,
) -> Option<u64> {
    if prune && !feature_matches(query, feature) {
        return None;
    }
    let score = query.score(&feature.keywords);
    let mut copies = 0u64;
    route_feature_with_pruning(grid, query, feature, false, |c| {
        copies += 1;
        emit(c, score);
    });
    Some(copies)
}

/// Prebuilt map-side routing for one `(partition, radius)` pair: a data
/// object's cell is one array load and a feature's target cells one
/// precomputed run (CSR layout — one flat cell-id slice plus a
/// per-feature offset table), instead of point-location and the Lemma-1
/// MINDIST walk.
///
/// The tables replay **exactly** the live routing — same cells, same
/// emission order (enclosing cell first, then the duplication targets in
/// partition order).
#[derive(Debug, Clone)]
pub struct CellRouting {
    /// Enclosing cell per data object (same index space as the store).
    data_cells: Box<[u32]>,
    /// `feature_targets[feature_offsets[i]..feature_offsets[i + 1]]` are
    /// feature `i`'s target cells: its enclosing cell followed by every
    /// Lemma-1 duplication target, in emission order.
    feature_offsets: Box<[usize]>,
    feature_targets: Box<[u32]>,
}

impl CellRouting {
    /// Precomputes the routing of every object in `dataset` over
    /// `partition` for queries of radius `radius`.
    pub fn build(partition: &SpacePartition, dataset: &SharedDataset, radius: f64) -> Self {
        assert!(
            radius.is_finite() && radius >= 0.0,
            "routing radius must be finite and non-negative"
        );
        let data_cells = dataset
            .data()
            .iter()
            .map(|o| route_data(partition, &o.location).0)
            .collect();
        let mut feature_offsets = Vec::with_capacity(dataset.features().len() + 1);
        let mut feature_targets = Vec::new();
        feature_offsets.push(0usize);
        for f in dataset.features() {
            feature_targets.push(partition.cell_of(&f.location).0);
            partition
                .for_each_duplication_target(&f.location, radius, |c| feature_targets.push(c.0));
            feature_offsets.push(feature_targets.len());
        }
        Self {
            data_cells,
            feature_offsets: feature_offsets.into_boxed_slice(),
            feature_targets: feature_targets.into_boxed_slice(),
        }
    }

    /// The precomputed enclosing cell of data object `i`.
    #[inline]
    pub fn data_cell(&self, i: u32) -> CellId {
        CellId(self.data_cells[i as usize])
    }

    /// The precomputed target cells of feature object `i` (enclosing cell
    /// first, then the Lemma-1 duplication targets).
    #[inline]
    pub fn feature_targets(&self, i: u32) -> &[u32] {
        let i = i as usize;
        &self.feature_targets[self.feature_offsets[i]..self.feature_offsets[i + 1]]
    }
}

/// Number of duplicate emissions a routed feature produces (convenience
/// used by the duplication-factor experiments; equals
/// `emissions - 1`).
pub fn duplicate_count(grid: &SpacePartition, query: &SpqQuery, feature: &FeatureObject) -> u64 {
    let mut n = 0u64;
    if route_feature(grid, query, feature, |_| n += 1) {
        n - 1
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spq_spatial::{Grid, Rect};
    use spq_text::KeywordSet;

    fn grid() -> SpacePartition {
        Grid::square(Rect::from_coords(0.0, 0.0, 10.0, 10.0), 4).into()
    }

    fn query(r: f64) -> SpqQuery {
        SpqQuery::new(1, r, KeywordSet::from_ids([0]))
    }

    fn feat(x: f64, y: f64, ids: &[u32]) -> FeatureObject {
        FeatureObject::new(
            1,
            Point::new(x, y),
            KeywordSet::from_ids(ids.iter().copied()),
        )
    }

    #[test]
    fn data_routes_to_enclosing_cell() {
        assert_eq!(route_data(&grid(), &Point::new(1.8, 1.8)), CellId(0));
        assert_eq!(route_data(&grid(), &Point::new(9.9, 9.9)), CellId(15));
    }

    #[test]
    fn pruned_feature_emits_nothing() {
        let f = feat(5.0, 5.0, &[7, 8]); // no keyword 0
        let mut cells = vec![];
        let kept = route_feature(&grid(), &query(1.5), &f, |c| cells.push(c));
        assert!(!kept);
        assert!(cells.is_empty());
        assert_eq!(duplicate_count(&grid(), &query(1.5), &f), 0);
    }

    #[test]
    fn matching_feature_emits_own_cell_plus_duplicates() {
        // f7 of the paper: (3.0, 8.1) with r=1.5 duplicates to 3 cells.
        let f = feat(3.0, 8.1, &[0, 9]);
        let mut cells = vec![];
        let kept = route_feature(&grid(), &query(1.5), &f, |c| cells.push(c));
        assert!(kept);
        cells.sort();
        assert_eq!(cells, vec![CellId(8), CellId(9), CellId(12), CellId(13)]);
        assert_eq!(duplicate_count(&grid(), &query(1.5), &f), 3);
    }

    #[test]
    fn interior_feature_emits_once() {
        let f = feat(3.75, 3.75, &[0]);
        let mut cells = vec![];
        assert!(route_feature(&grid(), &query(1.0), &f, |c| cells.push(c)));
        assert_eq!(cells, vec![CellId(5)]);
    }

    #[test]
    fn prebuilt_routing_replays_live_routing_exactly() {
        use crate::model::DataObject;
        let data = vec![
            DataObject::new(1, Point::new(1.8, 1.8)),
            DataObject::new(2, Point::new(9.9, 9.9)),
        ];
        let features = vec![
            feat(3.0, 8.1, &[0, 9]), // boundary: several Lemma-1 targets
            feat(3.75, 3.75, &[0]),  // interior: one target
            feat(5.0, 5.0, &[7, 8]), // pruned for q.W = {0}
        ];
        let dataset = SharedDataset::new(data, features);
        let grid = grid();
        let q = query(1.5);
        let routing = CellRouting::build(&grid, &dataset, q.radius);

        assert_eq!(
            routing.data_cell(0),
            route_data(&grid, &Point::new(1.8, 1.8))
        );
        assert_eq!(routing.data_cell(1), CellId(15));

        // Routing is keyword-independent: the feature q prunes has a
        // precomputed run too, so every feature is compared unpruned.
        for (i, f) in dataset.features().iter().enumerate() {
            let mut live = vec![];
            route_feature_with_pruning(&grid, &q, f, false, |c| live.push(c.0));
            assert_eq!(routing.feature_targets(i as u32), live, "feature {i}");
        }
    }
}
